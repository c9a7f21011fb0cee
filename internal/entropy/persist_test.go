package entropy

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grid"
)

func TestTableSaveLoadRoundTrip(t *testing.T) {
	scores := []float64{0.5, 3.2, 0, 7.125, 1e-9}
	tab := NewTable(scores)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tab.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), tab.Len())
	}
	for i := 0; i < tab.Len(); i++ {
		if back.Score(grid.BlockID(i)) != tab.Score(grid.BlockID(i)) {
			t.Fatalf("score %d differs", i)
		}
	}
	// Ranking survives.
	a, b := tab.Ranked(), back.Ranked()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranking differs at %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("nope nope nope nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	tab := NewTable(make([]float64, 100))
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Error("truncated accepted")
	}
}

func TestSaveEmptyTable(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTable(nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("len = %d", back.Len())
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// header is a T_important header claiming n blocks.
func header(n uint32) []byte {
	le := binary.LittleEndian
	return le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, persistMagic), persistVersion), n)
}

// TestLoadSizesNothingFromTheHeader: a header is 12 bytes whatever block
// count it claims. 2²⁸ blocks used to allocate 2 GiB before the first score
// was read.
func TestLoadSizesNothingFromTheHeader(t *testing.T) {
	for _, n := range []uint32{1 << 28, math.MaxUint32} {
		head := header(n)
		var err error
		grew := allocatedBy(func() { _, err = Load(bytes.NewReader(head)) })
		if err == nil {
			t.Errorf("%d blocks: header without scores accepted", n)
		}
		if grew > 64<<10 {
			t.Errorf("%d blocks: Load allocated %d bytes for a %d-byte file", n, grew, len(head))
		}
	}
}

// FuzzLoad: whatever the bytes, Load returns (no panic), allocates no more
// than a small multiple of what it was given, and a table it accepts is one
// Save writes back as the bytes it was read from.
func FuzzLoad(f *testing.F) {
	var saved bytes.Buffer
	if err := NewTable([]float64{0.5, 3.2, 0, math.NaN(), math.Inf(-1)}).Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()-3])
	f.Add(header(0))
	f.Add(header(1 << 28))
	f.Add([]byte("nope nope nope nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var back *Table
		var err error
		// 8 bytes of input buy one score: at most 32 bytes over append's
		// doublings, 8 in NewTable's copy and 4 of rank.
		if grew := allocatedBy(func() { back, err = Load(bytes.NewReader(data)) }); grew > 64<<10+8*uint64(len(data)) {
			t.Fatalf("Load allocated %d bytes for %d bytes of input", grew, len(data))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := back.Save(&out); err != nil {
			t.Fatal(err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted %d bytes, Save wrote back %d different ones", len(data), out.Len())
		}
	})
}
