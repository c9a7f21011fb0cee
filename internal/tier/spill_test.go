package tier

import (
	"bytes"
	"encoding/binary"
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
	f.Add(int32(7), wrappingSpill())

	f.Fuzz(func(t *testing.T, want int32, raw []byte) {
		id := grid.BlockID(want)
		n, err := checkSpill(id, raw)
		// The read a hit is served with takes the same image in two
		// positioned reads: same verdict, and a buffer out of the pool only
		// for a file it serves.
		var tr Tier
		tr.bufs.Put(make([]float32, len(raw)/4+1))
		vals, rerr := tr.readSpill(bytes.NewReader(raw), id, int64(len(raw)))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("checkSpill says %v, the served read %v", err, rerr)
		}
		if _, pooled := tr.bufs.Get(1); pooled != (rerr != nil) {
			t.Fatalf("pool buffer still pooled = %v after a read that returned %v", pooled, rerr)
		}
		if err != nil {
			return
		}
		if len(vals) != n {
			t.Fatalf("checkSpill counts %d voxels, the served read returned %d", n, len(vals))
		}
		if again := encodeSpill(id, vals); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %q, which re-encodes to %q", raw, again)
		}
	})
}

// FuzzParseSpillName: a name rescan accepts is exactly the name spillName
// writes for its id, so every file the tier indexes is one it can read,
// evict and quarantine.
func FuzzParseSpillName(f *testing.F) {
	for _, name := range []string{
		"b0.sp", "b7.sp", "b2147483647.sp", "b05.sp", "b+6.sp", "b007.sp",
		"b-0.sp", "b-1.sp", "b.sp", "b2147483648.sp", "b7.sp.tmp", "README",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		id, ok := parseSpillName(name)
		if !ok {
			return
		}
		if id < 0 || spillName(id) != name {
			t.Fatalf("parseSpillName(%q) = %d, whose name is %q", name, id, spillName(id))
		}
	})
}

// wrappingSpill is a 40-byte file whose header declares 0x40000005 voxels:
// four times that is 20 more than 2³², so a length check done in a 32-bit
// int sees the 20 payload bytes the file has.
func wrappingSpill() []byte {
	raw := make([]byte, spillHeaderSize+20)
	copy(raw, goldenSpill[:spillHeaderSize])
	binary.LittleEndian.PutUint32(raw[12:16], 0x40000005)
	binary.LittleEndian.PutUint32(raw[16:20], f32le.Checksum(raw[spillHeaderSize:]))
	return raw
}

// TestSpillLengthCheckedIn64Bits: the declared voxel count is a uint32 off
// the disk, and the length it implies must not wrap on any host.
func TestSpillLengthCheckedIn64Bits(t *testing.T) {
	raw := wrappingSpill()
	if n, err := checkSpill(7, raw); err == nil {
		t.Fatalf("a 40-byte file declaring 0x40000005 voxels was accepted as %d", n)
	}
	if _, _, err := checkSpillHeader(7, raw[:spillHeaderSize], int64(len(raw))); err == nil {
		t.Fatal("the header check alone accepted it")
	}
}
