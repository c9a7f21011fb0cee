package tier

// Spill file format (one block per file, little-endian):
//
//	offset  size  field
//	0       4     magic "tspl"
//	4       4     version (currently 1)
//	8       4     block id (int32)
//	12      4     n — number of float32 samples
//	16      4     CRC-32C (Castagnoli) over the payload bytes (f32le.Checksum)
//	20      n*4   payload — samples as IEEE-754 float32 (f32le.Append)
//
// The committed name is b<id>.sp; writers stage under a *.tmp name and
// publish with fsync + rename, so after a crash every *.sp file is either a
// complete pre-crash entry or detectably torn (truncated/corrupt payload —
// caught by the length and checksum checks below), and every *.tmp is
// garbage to reclaim. The id is stored in the header as well as the name so
// a rescan never trusts the filename alone.

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/f32le"
	"repro/internal/grid"
)

const (
	spillVersion    = 1
	spillHeaderSize = 20
	spillSuffix     = ".sp"
	tempPattern     = "spill-*.tmp"
)

var spillMagic = [4]byte{'t', 's', 'p', 'l'}

// spillName returns the committed filename for a block.
func spillName(id grid.BlockID) string {
	return "b" + strconv.FormatInt(int64(id), 10) + spillSuffix
}

// parseSpillName extracts the block id from a committed filename. It accepts
// only the name spillName writes: every file operation goes through that
// name, so a "b05.sp" or "b+6.sp" indexed as a block could never be read,
// evicted or quarantined.
func parseSpillName(name string) (grid.BlockID, bool) {
	if !strings.HasPrefix(name, "b") || !strings.HasSuffix(name, spillSuffix) {
		return 0, false
	}
	n, err := strconv.ParseInt(name[1:len(name)-len(spillSuffix)], 10, 32)
	if err != nil || n < 0 || spillName(grid.BlockID(n)) != name {
		return 0, false
	}
	return grid.BlockID(n), true
}

// encodeSpill serializes a block into the on-disk format.
func encodeSpill(id grid.BlockID, vals []float32) []byte {
	buf := make([]byte, spillHeaderSize, spillHeaderSize+4*len(vals))
	copy(buf[0:4], spillMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], spillVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(id))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(vals)))
	buf = f32le.Append(buf, vals)
	binary.LittleEndian.PutUint32(buf[16:20], f32le.Checksum(buf[spillHeaderSize:]))
	return buf
}

// checkSpillHeader verifies that hdr, the first bytes of a spill file size
// bytes long, is the whole header of a file holding block want, and returns
// the voxel count and payload checksum it declares. The declared count comes
// off the disk as a uint32: the length it implies is worked out in int64, so
// that no count wraps a 32-bit int into a length the file happens to have.
func checkSpillHeader(want grid.BlockID, hdr []byte, size int64) (n int, sum uint32, err error) {
	if len(hdr) < spillHeaderSize {
		return 0, 0, fmt.Errorf("tier: spill file truncated: %d bytes", len(hdr))
	}
	if [4]byte(hdr[0:4]) != spillMagic {
		return 0, 0, fmt.Errorf("tier: bad spill magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != spillVersion {
		return 0, 0, fmt.Errorf("tier: unsupported spill version %d", v)
	}
	if id := grid.BlockID(binary.LittleEndian.Uint32(hdr[8:12])); id != want {
		return 0, 0, fmt.Errorf("tier: spill holds block %d, want %d", id, want)
	}
	declared := 4 * int64(binary.LittleEndian.Uint32(hdr[12:16]))
	if size != spillHeaderSize+declared {
		return 0, 0, fmt.Errorf("tier: spill payload %d bytes, header says %d",
			size-spillHeaderSize, declared)
	}
	return int(declared / 4), binary.LittleEndian.Uint32(hdr[16:20]), nil
}

// checkSpill verifies a spill file read whole as raw really holds block want
// and returns its voxel count. Every failure mode a torn or rotten file can
// present — truncation, wrong magic/version, id mismatch, length mismatch,
// checksum mismatch — comes back as an error.
func checkSpill(want grid.BlockID, raw []byte) (int, error) {
	n, sum, err := checkSpillHeader(want, raw[:min(len(raw), spillHeaderSize)], int64(len(raw)))
	if err != nil {
		return 0, err
	}
	if f32le.Checksum(raw[spillHeaderSize:]) != sum {
		return 0, errSpillChecksum(want)
	}
	return n, nil
}

func errSpillChecksum(id grid.BlockID) error {
	return fmt.Errorf("tier: spill checksum mismatch for block %d", id)
}

// readSpill reads block id from f, a spill file size bytes long, in two
// positioned reads: the header first, checked against id and size before a
// buffer is taken, then the payload straight into a recycled block buffer,
// where its checksum is verified — no copy, and no file offset, so
// concurrent hits can share one descriptor. A buffer that fails goes back to
// the pool. It accepts exactly the files checkSpill accepts (FuzzCheckSpill
// holds the two together).
func (t *Tier) readSpill(f io.ReaderAt, id grid.BlockID, size int64) ([]float32, error) {
	hdr := t.takeHdr()
	defer t.putHdr(hdr)
	// A ReaderAt reports io.EOF beside a read cut short by the end of the
	// file: a torn header, for checkSpillHeader to name.
	k, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	n, want, err := checkSpillHeader(id, hdr[:k], size)
	if err != nil {
		return nil, err
	}
	vals, _ := t.bufs.Get(n)
	got, err := f32le.ReadAt(f, spillHeaderSize, vals)
	if err == nil && got != want {
		err = errSpillChecksum(id)
	}
	if err != nil {
		t.bufs.Put(vals)
		return nil, err
	}
	return vals, nil
}

// maxFreeHdrs bounds the header scratches kept, above the spill reads in
// flight at once: a few batches of batchReadParallelism readers.
const maxFreeHdrs = 4 * batchReadParallelism

// takeHdr returns a header scratch from the free list, or a new one.
func (t *Tier) takeHdr() *[spillHeaderSize]byte {
	t.hdrMu.Lock()
	defer t.hdrMu.Unlock()
	if n := len(t.hdrs); n > 0 {
		hdr := t.hdrs[n-1]
		t.hdrs = t.hdrs[:n-1]
		return hdr
	}
	return new([spillHeaderSize]byte)
}

// putHdr returns a header scratch to the free list.
func (t *Tier) putHdr(hdr *[spillHeaderSize]byte) {
	t.hdrMu.Lock()
	if len(t.hdrs) < maxFreeHdrs {
		t.hdrs = append(t.hdrs, hdr)
	}
	t.hdrMu.Unlock()
}
