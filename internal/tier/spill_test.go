package tier

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/f32le"
	"repro/internal/grid"
)

// goldenSpill is encodeSpill(7, {1, -2.5, NaN}) as a tspl v1 file has always
// spelled it: magic, version 1, id 7, n 3, the payload's CRC-32C, then the
// three float32s little-endian.
var goldenSpill = []byte("tspl" +
	"\x01\x00\x00\x00" + "\x07\x00\x00\x00" + "\x03\x00\x00\x00" + "\x3e\xab\x28\x46" +
	"\x00\x00\x80\x3f" + "\x00\x00\x20\xc0" + "\x00\x00\xc0\x7f")

// TestSpillFormatGolden pins the spill file byte for byte in both
// directions, so a spill directory written by any earlier build reopens with
// nothing quarantined.
func TestSpillFormatGolden(t *testing.T) {
	vals := []float32{1, -2.5, float32(math.NaN())}
	if got := encodeSpill(7, vals); !bytes.Equal(got, goldenSpill) {
		t.Fatalf("encodeSpill = %q, want %q", got, goldenSpill)
	}
	n, err := checkSpill(7, goldenSpill)
	if err != nil || n != len(vals) {
		t.Fatalf("checkSpill(golden) = %d, %v", n, err)
	}
	got := make([]float32, n)
	f32le.Decode(got, goldenSpill[spillHeaderSize:])
	for i := range vals {
		if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
			t.Errorf("value %d decoded to bits %08x, want %08x",
				i, math.Float32bits(got[i]), math.Float32bits(vals[i]))
		}
	}
}

// TestRescanQuarantinesOversizeUnread: a file named like a spill entry but
// larger than the whole budget can never have been resident. Rescan must set
// it aside on the directory entry's word, not stage its length to check it.
func TestRescanQuarantinesOversizeUnread(t *testing.T) {
	dir := t.TempDir()
	tr := openTier(t, dir, 4, 16, nil)
	put(tr, 3, block(3, 16))
	tr.Close()

	const capacity = 16 << 20
	big, err := os.Create(filepath.Join(dir, spillName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Truncate(capacity + 1); err != nil { // sparse: no blocks behind it
		t.Fatal(err)
	}
	big.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr2, err := Open(Config{Dir: dir, Capacity: capacity})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= capacity {
		t.Errorf("Open allocated %d bytes over a %d-byte directory entry", got, capacity+1)
	}
	if c := tr2.Counters(); c.Quarantined != 1 || c.Blocks != 1 {
		t.Errorf("quarantined = %d, resident = %d; want 1 and 1", c.Quarantined, c.Blocks)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, spillName(0))); err != nil {
		t.Errorf("oversize file missing from quarantine: %v", err)
	}
	if _, ok := tr2.Get(3); !ok {
		t.Error("intact block beside it not recovered")
	}
}

// FuzzCheckSpill drives the spill-file decoder with arbitrary file images.
// It must never panic, and anything it accepts as block want must be exactly
// what encodeSpill writes for the voxels it holds — no second spelling of a
// file is servable.
func FuzzCheckSpill(f *testing.F) {
	valid := bytes.Clone(goldenSpill)
	mutate := func(off int, delta byte) []byte {
		b := bytes.Clone(valid)
		b[off] += delta
		return b
	}
	f.Add(int32(7), valid)
	f.Add(int32(8), valid) // a file under another block's name
	for off := 0; off < spillHeaderSize; off += 4 {
		f.Add(int32(7), mutate(off, 1)) // magic, version, id, n, crc: each off by one
	}
	f.Add(int32(7), valid[:len(valid)-1])          // truncated payload
	f.Add(int32(7), valid[:spillHeaderSize-1])     // truncated header
	f.Add(int32(7), append(bytes.Clone(valid), 0)) // trailing byte
	f.Add(int32(7), mutate(spillHeaderSize+5, 0x10))
	f.Add(int32(0), encodeSpill(0, nil))

	f.Fuzz(func(t *testing.T, want int32, raw []byte) {
		id := grid.BlockID(want)
		n, err := checkSpill(id, raw)
		if err != nil {
			return
		}
		vals := make([]float32, n)
		f32le.Decode(vals, raw[spillHeaderSize:])
		if again := encodeSpill(id, vals); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %q, which re-encodes to %q", raw, again)
		}
	})
}
