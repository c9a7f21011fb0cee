package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/volume"
)

// TestWriteGoldenFile pins the bvol v2 file byte for byte: header, checksum
// table, block-ordered little-endian voxels. The digest was taken from the
// per-voxel writer this file format started with.
func TestWriteGoldenFile(t *testing.T) {
	ds := volume.Ball().Scale(0.0625) // 64³
	g, err := ds.GridWithBlockCount(64)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "bcb0ec0a24cdc17f8739f1bf8cc9b3af2a741fc3ee3e66ae822910ecb5a00862"
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); len(raw) != 1048872 || got != want {
		t.Fatalf("Write produced %d bytes, sha256 %s; want 1048872 bytes, %s", len(raw), got, want)
	}
}

// fileImage builds a bvol v2 file by hand — the tests' own writer, with its
// own table and loop, sharing nothing with Write or the codec under it.
func fileImage(res, block grid.Dims, blocks int32, voxel func(i int) float32) []byte {
	var out []byte
	for _, v := range []int32{magic, version,
		int32(res.X), int32(res.Y), int32(res.Z),
		int32(block.X), int32(block.Y), int32(block.Z), 0, blocks} {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	g, err := grid.New(res, block)
	if err != nil || voxel == nil {
		return out // header only
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	var data []byte
	i := 0
	for _, id := range g.All() {
		start := len(data)
		for n := g.VoxelCount(id); n > 0; n-- {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(voxel(i)))
			i++
		}
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(data[start:], table))
	}
	return append(out, data...)
}

// allocatedBy returns the bytes f allocated (and whatever the rest of the
// process allocated meanwhile: callers leave slack).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenSizesNothingFromAShortFile: the header is bytes off the disk, so
// the file's length is checked against the geometry it claims before any
// table is sized from it. Forty bytes used to buy a 4 GiB allocation.
func TestOpenSizesNothingFromAShortFile(t *testing.T) {
	one := grid.Dims{X: 1, Y: 1, Z: 1}
	huge := grid.Dims{X: math.MaxInt32, Y: math.MaxInt32, Z: math.MaxInt32}
	cases := []struct {
		name       string
		res, block grid.Dims
		blocks     int32
	}{
		{"2^30 one-voxel blocks", grid.Dims{X: 1 << 30, Y: 1, Z: 1}, one, 1 << 30},
		{"voxel count past int64", huge, huge, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bomb.bvol")
			if err := os.WriteFile(path, fileImage(tc.res, tc.block, tc.blocks, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			got := allocatedBy(func() {
				var bf *BlockFile
				if bf, err = Open(path); err == nil {
					bf.Close()
				}
			})
			if err == nil {
				t.Error("header-only file accepted")
			}
			if got > 1<<20 {
				t.Errorf("Open allocated %d bytes for a %d-byte file", got, headerSize)
			}
		})
	}
}

// FuzzOpen drives Open with arbitrary file images. It must never panic,
// never allocate more than a small multiple of the file (every table is
// bounded by the length check), and a file it accepts must answer for every
// block: the voxels, or a permanent checksum fault.
func FuzzOpen(f *testing.F) {
	res, block := grid.Dims{X: 5, Y: 4, Z: 3}, grid.Dims{X: 2, Y: 2, Z: 2} // clipped edge blocks
	valid := fileImage(res, block, 12, func(i int) float32 { return float32(i) - 7.5 })
	f.Add(valid)
	f.Add(valid[:headerSize])                                        // header only
	f.Add(valid[:headerSize+4*12+3])                                 // torn in the data
	f.Add(valid[:len(valid)-1])                                      // one byte short
	f.Add(append(append([]byte(nil), valid...), 0))                  // trailing byte
	f.Add(fileImage(res, block, 13, func(int) float32 { return 0 })) // block count lies
	one := grid.Dims{X: 1, Y: 1, Z: 1}
	f.Add(fileImage(grid.Dims{X: 1 << 30, Y: 1, Z: 1}, one, 1<<30, nil)) // the 4 GiB header
	rot := append([]byte(nil), valid...)
	rot[len(rot)-2] ^= 0x40
	f.Add(rot)

	path := filepath.Join(f.TempDir(), "fuzz.bvol")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var bf *BlockFile
		var err error
		// Tables and offsets come to 20 bytes a block and a block is at least
		// 8 bytes of file; the rest is the fixed cost of a BlockFile.
		if got := allocatedBy(func() { bf, err = Open(path) }); got > 64<<10+4*uint64(len(data)) {
			t.Fatalf("Open allocated %d bytes for a %d-byte file", got, len(data))
		}
		if err != nil {
			return
		}
		defer bf.Close()
		for _, id := range bf.g.All() {
			vals, err := bf.ReadBlock(id)
			if err == nil && int64(len(vals)) == bf.g.VoxelCount(id) {
				continue
			}
			if !errors.Is(err, faultio.ErrChecksum) || faultio.Retryable(err) {
				t.Fatalf("block %d of an accepted file: %d voxels, %v", id, len(vals), err)
			}
		}
	})
}
