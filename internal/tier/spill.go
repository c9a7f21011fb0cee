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

// parseSpillName extracts the block id from a committed filename.
func parseSpillName(name string) (grid.BlockID, bool) {
	if !strings.HasPrefix(name, "b") || !strings.HasSuffix(name, spillSuffix) {
		return 0, false
	}
	n, err := strconv.ParseInt(name[1:len(name)-len(spillSuffix)], 10, 32)
	if err != nil || n < 0 {
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

// checkSpill verifies a spill file read as raw really holds block want and
// returns its voxel count. Every failure mode a torn or rotten file can
// present — truncation, wrong magic/version, id mismatch, length mismatch,
// checksum mismatch — comes back as an error.
func checkSpill(want grid.BlockID, raw []byte) (int, error) {
	if len(raw) < spillHeaderSize {
		return 0, fmt.Errorf("tier: spill file truncated: %d bytes", len(raw))
	}
	if [4]byte(raw[0:4]) != spillMagic {
		return 0, fmt.Errorf("tier: bad spill magic %q", raw[0:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != spillVersion {
		return 0, fmt.Errorf("tier: unsupported spill version %d", v)
	}
	if id := grid.BlockID(binary.LittleEndian.Uint32(raw[8:12])); id != want {
		return 0, fmt.Errorf("tier: spill holds block %d, want %d", id, want)
	}
	n := int(binary.LittleEndian.Uint32(raw[12:16]))
	if len(raw) != spillHeaderSize+4*n {
		return 0, fmt.Errorf("tier: spill payload %d bytes, header says %d",
			len(raw)-spillHeaderSize, 4*n)
	}
	if got := f32le.Checksum(raw[spillHeaderSize:]); got != binary.LittleEndian.Uint32(raw[16:20]) {
		return 0, fmt.Errorf("tier: spill checksum mismatch for block %d", want)
	}
	return n, nil
}
