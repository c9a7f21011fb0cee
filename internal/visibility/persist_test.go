package visibility

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/radius"
	"repro/internal/vec"
)

func TestTableSaveLoadRoundTrip(t *testing.T) {
	g, tab := newTestTable(t, tableOpts())
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumKeys() != tab.NumKeys() {
		t.Fatalf("keys = %d, want %d", back.NumKeys(), tab.NumKeys())
	}
	if back.MaterializedKeys() != back.NumKeys() {
		t.Error("loaded table not fully materialized")
	}
	for i := 0; i < tab.NumKeys(); i++ {
		a, b := tab.PredictedSet(i), back.PredictedSet(i)
		if len(a) != len(b) {
			t.Fatalf("key %d: %d vs %d blocks", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %d differs at %d", i, j)
			}
		}
	}
	// Geometry and lookup behavior survive.
	if back.QueryCost() != tab.QueryCost() {
		t.Errorf("query cost %v != %v", back.QueryCost(), tab.QueryCost())
	}
	pos := tab.KeyPos(7)
	if back.NearestKey(pos) != tab.NearestKey(pos) {
		t.Error("nearest-key lookup differs after reload")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g, _ := grid.New(grid.Dims{X: 32, Y: 32, Z: 32}, grid.Dims{X: 16, Y: 16, Z: 16})
	if _, err := Load(strings.NewReader("garbage data here............."), g); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(""), g); err == nil {
		t.Error("empty input accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g, tab := newTestTable(t, tableOpts())
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2]), g); err == nil {
		t.Error("truncated table accepted")
	}
}

func TestLoadRejectsMismatchedGrid(t *testing.T) {
	g, tab := newTestTable(t, tableOpts())
	_ = g
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A grid with fewer blocks than the stored IDs reference must fail.
	tiny, err := grid.New(grid.Dims{X: 16, Y: 16, Z: 16}, grid.Dims{X: 16, Y: 16, Z: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), tiny); err == nil {
		t.Error("mismatched grid accepted")
	}
}

// persistHeader builds the 52 bytes Save writes before the first key.
func persistHeader(nAz, nEl, nDist uint32, rMin, rMax, theta float64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, persistMagic)
	b = le.AppendUint32(b, persistVersion)
	for _, d := range []uint32{nAz, nEl, nDist} {
		b = le.AppendUint32(b, d)
	}
	for _, f := range []float64{rMin, rMax, theta} {
		b = le.AppendUint64(b, math.Float64bits(f))
	}
	return le.AppendUint64(b, uint64(25*time.Nanosecond))
}

// allocatedBy returns the bytes f allocates, live or not.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadSizesNothingFromTheHeader: a header is 52 bytes whatever key count
// it claims. 4 096 × 4 096 keys used to allocate 640 MiB before the first
// body byte was read; 0xffffffff three times overflowed int and asked the
// runtime for more memory than exists, which no caller can recover from.
func TestLoadSizesNothingFromTheHeader(t *testing.T) {
	g, _ := grid.New(grid.Dims{X: 32, Y: 32, Z: 32}, grid.Dims{X: 16, Y: 16, Z: 16})
	for _, c := range []struct {
		name           string
		nAz, nEl, nDis uint32
	}{
		{"16Mi keys", 4096, 4096, 1},
		{"overflowing product", math.MaxUint32, math.MaxUint32, math.MaxUint32},
	} {
		head := persistHeader(c.nAz, c.nEl, c.nDis, 2, 4, vec.Radians(30))
		var err error
		grew := allocatedBy(func() { _, err = Load(bytes.NewReader(head), g) })
		if err == nil {
			t.Errorf("%s: header without a body accepted", c.name)
		}
		if grew > 64<<10 {
			t.Errorf("%s: Load allocated %d bytes for a %d-byte file", c.name, grew, len(head))
		}
	}
}

func TestLoadRejectsWhatSaveCannotWrite(t *testing.T) {
	g, _ := grid.New(grid.Dims{X: 32, Y: 32, Z: 32}, grid.Dims{X: 16, Y: 16, Z: 16})
	le := binary.LittleEndian
	key := func(ids ...uint32) []byte {
		b := le.AppendUint32(nil, uint32(len(ids)))
		for _, id := range ids {
			b = le.AppendUint32(b, id)
		}
		return b
	}
	theta := vec.Radians(30)
	for name, file := range map[string][]byte{
		"NaN RMin":        append(persistHeader(1, 1, 1, math.NaN(), 4, theta), key(0, 1)...),
		"NaN RMax":        append(persistHeader(1, 1, 1, 2, math.NaN(), theta), key(0, 1)...),
		"infinite RMax":   append(persistHeader(1, 1, 1, 2, math.Inf(1), theta), key(0, 1)...),
		"NaN view angle":  append(persistHeader(1, 1, 1, 2, 4, math.NaN()), key(0, 1)...),
		"descending ids":  append(persistHeader(1, 1, 1, 2, 4, theta), key(3, 1)...),
		"repeated id":     append(persistHeader(1, 1, 1, 2, 4, theta), key(1, 1)...),
		"id past grid":    append(persistHeader(1, 1, 1, 2, 4, theta), key(1, 8)...),
		"zero query cost": append(persistHeader(1, 1, 1, 2, 4, theta)[:44], append(make([]byte, 8), key(0, 1)...)...),
	} {
		if _, err := Load(bytes.NewReader(file), g); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Load(bytes.NewReader(append(persistHeader(1, 1, 1, 2, 4, theta), key(0, 1, 7)...)), g); err != nil {
		t.Errorf("well-formed file: %v", err)
	}
}

// FuzzLoad: whatever the bytes, Load returns (no panic), allocates no more
// than a small multiple of what it was given, and a table it accepts is one
// Save writes back as the bytes it was read from.
func FuzzLoad(f *testing.F) {
	g, tab := newTestTable(f, Options{
		NAzimuth: 4, NElevation: 2, NDistance: 2,
		RMin: 2, RMax: 4, ViewAngle: vec.Radians(30), Radius: radius.Fixed(0.1),
	})
	var saved bytes.Buffer
	if err := tab.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	f.Add(persistHeader(4096, 4096, 1, 2, 4, vec.Radians(30)))
	f.Add(persistHeader(math.MaxUint32, math.MaxUint32, math.MaxUint32, 2, 4, vec.Radians(30)))
	f.Add(persistHeader(1, 1, 1, math.NaN(), 4, vec.Radians(30)))
	f.Add(append(persistHeader(1, 1, 1, 2, 4, vec.Radians(30)), 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0))
	f.Add([]byte("garbage data here............."))
	f.Fuzz(func(t *testing.T, data []byte) {
		var back *Table
		var err error
		// 4 bytes of input buy at most one key: a 24-byte slice header in a
		// slice that append doubles, and 16 bytes of once and done.
		if grew := allocatedBy(func() { back, err = Load(bytes.NewReader(data), g) }); grew > 64<<10+32*uint64(len(data)) {
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
