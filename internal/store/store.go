// Package store provides real file-backed block storage: the on-disk layout
// the simulator's cost models stand in for. A block file holds one
// variable's voxels reordered so each block is contiguous (the layout
// out-of-core visualization systems use so a block is one sequential read),
// prefixed by a self-describing header.
//
// The simulator (package memhier) answers "how long would the hierarchy
// take"; this package answers "read the actual bytes", so examples and the
// out-of-core runtime (package ooc) can operate on genuine files written by
// cmd/datagen or Write.
//
// Format: a header, a per-block CRC32C table, then block data (version 2,
// the only version Write produces and Open accepts). ReadBlock verifies the
// checksum on every read and rejects corrupted blocks with a
// faultio.ErrChecksum fault; there is no checksum-less read path. Write is
// crash-safe: it writes to a temp file in the target directory and renames
// into place, so an interrupted write never leaves a truncated file at the
// destination path.
package store

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/f32le"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/volume"
)

// magic identifies block files; the version guards layout changes.
const (
	magic   = 0x62766f6c // "bvol"
	version = 2
)

// headerSize is the fixed byte size of the file header. It is followed by
// Blocks uint32 checksums, then block data.
const headerSize = 4 * 10

// Header describes a block file.
type Header struct {
	Res      grid.Dims // volume resolution in voxels
	Block    grid.Dims // nominal block extent in voxels
	Variable int32     // which dataset variable the file holds
	Blocks   int32     // total block count (redundant, for validation)
	Version  int32     // on-disk format version
}

// BlockReader is the read side of a block store, the one contract every
// level of the real hierarchy meets: BlockFile, faultio.Injector,
// tier.Reader and blocksvc.RemoteReader implement it, and MemCache fronts
// one. A single read, a batch that carries the caller's context, and the
// hand-back of buffers no longer read: a wrapper forwards all three, so
// batching and buffer reuse reach the bottom of any stack.
type BlockReader interface {
	ReadBlock(id grid.BlockID) ([]float32, error)
	BatchBlockReader
	BlockBufRecycler
}

// ContextBlockReader is a single read that takes a context. No product
// reader implements it: a context travels on ReadBlocks. It stays declared
// because the benchmark's timing wrapper in bench/ names it.
type ContextBlockReader interface {
	ReadBlockContext(ctx context.Context, id grid.BlockID) ([]float32, error)
}

// BatchBlockReader serves many blocks in one call with per-block results:
// vals[i]/errs[i] correspond to ids[i], and one block's failure never
// poisons its neighbors. ctx bounds the whole batch; a canceled ctx fails
// every block. BlockFile merges adjacent blocks into sequential reads;
// faultio.Injector splits the batch when it injects, so per-block fault
// semantics are preserved. ids stays the caller's: a reader keeps no
// reference to it past its return (MemCache passes the ids of a reused
// in-flight record).
type BatchBlockReader interface {
	ReadBlocks(ctx context.Context, ids []grid.BlockID) (vals [][]float32, errs []error)
}

// BlockBufRecycler takes back previously decoded block buffers for reuse by
// future reads. Callers must hand back only slices no longer referenced
// anywhere — a recycled buffer's contents are overwritten by a later read.
// MemCache feeds it the slices of evicted blocks once their owner has
// released them: at each MemCache.Release (every ooc.Runtime Frame), or at
// eviction under MemCache.EnableRecycling. A reader that pools nothing may
// drop the buffer.
type BlockBufRecycler interface {
	RecycleBlockBuf([]float32)
}

// maxMergedRunBytes caps how many bytes one merged ReadAt may cover, so a
// huge contiguous miss batch stays within a bounded staging buffer.
const maxMergedRunBytes = 8 << 20

// BlockFile reads blocks from a block-layout file.
type BlockFile struct {
	f       *os.File
	hdr     Header
	g       *grid.Grid
	offsets []int64  // byte offset of each block's data
	crcs    []uint32 // per-block CRC32C

	staging sync.Pool // *[]byte staging of merged runs, reused across reads
	bufs    BufPool   // recycled decode buffers (fed via RecycleBlockBuf)

	reads       atomic.Int64 // blocks read (single + batched)
	batches     atomic.Int64 // ReadBlocks calls
	mergedRuns  atomic.Int64 // ReadAt calls issued by ReadBlocks
	batchBlocks atomic.Int64 // blocks read through ReadBlocks
	stagingGets atomic.Int64 // staging-buffer requests
	stagingNews atomic.Int64 // staging requests that had to allocate
	bufGets     atomic.Int64 // decode-buffer requests
	bufReuses   atomic.Int64 // decode requests served from the free list
}

var _ BlockReader = (*BlockFile)(nil)
var _ faultio.Checksummer = (*BlockFile)(nil)

// IOStats counts a BlockFile's read-path activity: how many blocks were
// served, how batching merged them into sequential runs, and how often the
// staging and decode buffer pools avoided an allocation.
type IOStats struct {
	Reads       int64 // blocks read, single and batched: a ReadAt was issued for each
	Batches     int64 // ReadBlocks calls
	MergedRuns  int64 // physical ReadAt calls those batches issued
	BatchBlocks int64 // blocks read through ReadBlocks; an id out of range or past a canceled ctx is not
	StagingGets int64 // staging ([]byte) buffer requests: one per merged run of 2+ blocks
	StagingNews int64 // staging requests that allocated fresh memory
	BufGets     int64 // decode ([]float32) buffer requests
	BufReuses   int64 // decode requests served from recycled buffers
}

// IOStats returns a snapshot of the file's read-path counters.
func (bf *BlockFile) IOStats() IOStats {
	return IOStats{
		Reads:       bf.reads.Load(),
		Batches:     bf.batches.Load(),
		MergedRuns:  bf.mergedRuns.Load(),
		BatchBlocks: bf.batchBlocks.Load(),
		StagingGets: bf.stagingGets.Load(),
		StagingNews: bf.stagingNews.Load(),
		BufGets:     bf.bufGets.Load(),
		BufReuses:   bf.bufReuses.Load(),
	}
}

// Write materializes one variable of a dataset to path in block layout
// (format v2, checksummed). Blocks are written in BlockID order, each as
// little-endian float32 voxels in x-fastest order within the block. Writing
// streams block by block, so paper-size volumes need only one block of
// memory. The data goes to a temp file in path's directory and is renamed
// into place on success, so a failed or interrupted write never leaves a
// partial file at path.
func Write(path string, ds *volume.Dataset, g *grid.Grid, variable int) (err error) {
	if variable < 0 || variable >= ds.Variables {
		return fmt.Errorf("store: variable %d out of [0,%d)", variable, ds.Variables)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := Header{
		Res:      g.Res(),
		Block:    g.BlockSize(),
		Variable: int32(variable),
		Blocks:   int32(g.NumBlocks()),
		Version:  version,
	}
	if err = writeHeader(w, hdr); err != nil {
		return err
	}
	// Reserve the checksum table; it is backfilled once the data is known.
	crcs := make([]byte, 4*g.NumBlocks())
	if _, err = w.Write(crcs); err != nil {
		return err
	}
	var raw []byte
	for _, id := range g.All() {
		raw = f32le.Append(raw[:0], ds.BlockSamples(g, id, variable, 0))
		binary.LittleEndian.PutUint32(crcs[4*id:], f32le.Checksum(raw))
		if _, err = w.Write(raw); err != nil {
			return err
		}
	}
	if err = w.Flush(); err != nil {
		return err
	}
	if _, err = f.WriteAt(crcs, headerSize); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeHeader(w io.Writer, h Header) error {
	fields := []int32{
		magic, h.Version,
		int32(h.Res.X), int32(h.Res.Y), int32(h.Res.Z),
		int32(h.Block.X), int32(h.Block.Y), int32(h.Block.Z),
		h.Variable, h.Blocks,
	}
	for _, v := range fields {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// Open opens a block file for random-access block reads.
func Open(path string) (*BlockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var raw [headerSize]byte
	if _, err := io.ReadFull(f, raw[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: short header: %v", err)
	}
	get := func(i int) int32 {
		return int32(binary.LittleEndian.Uint32(raw[4*i : 4*i+4]))
	}
	if get(0) != magic {
		f.Close()
		return nil, fmt.Errorf("store: %s is not a block file", path)
	}
	if v := get(1); v != version {
		f.Close()
		// Older files carry no checksums and would read unverified.
		return nil, fmt.Errorf("store: %s is format version %d, want %d; re-write with store.Write: %w",
			path, v, version, faultio.ErrPermanent)
	}
	hdr := Header{
		Res:      grid.Dims{X: int(get(2)), Y: int(get(3)), Z: int(get(4))},
		Block:    grid.Dims{X: int(get(5)), Y: int(get(6)), Z: int(get(7))},
		Variable: get(8),
		Blocks:   get(9),
		Version:  get(1),
	}
	g, err := grid.New(hdr.Res, hdr.Block)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: bad geometry: %v", err)
	}
	if g.NumBlocks() != int(hdr.Blocks) {
		f.Close()
		return nil, fmt.Errorf("store: header claims %d blocks, geometry gives %d",
			hdr.Blocks, g.NumBlocks())
	}
	// A file holds the header, one checksum per block and one float32 per
	// voxel. Its length is checked against that before anything is sized from
	// the header: 40 bytes off the disk can claim a checksum table of
	// gigabytes. The extents are positive int32s (grid.New checked), so only
	// the product with Res.Z can overflow, and then no file is long enough.
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fixed := int64(headerSize) + 4*int64(hdr.Blocks)
	plane, depth := int64(hdr.Res.X)*int64(hdr.Res.Y), int64(hdr.Res.Z)
	if plane > (math.MaxInt64-fixed)/4/depth || st.Size() < fixed+4*plane*depth {
		f.Close()
		return nil, fmt.Errorf("store: file truncated: %d bytes, too few for %v voxels in %d blocks",
			st.Size(), hdr.Res, hdr.Blocks)
	}
	bf := &BlockFile{f: f, hdr: hdr, g: g}
	table := make([]byte, 4*g.NumBlocks())
	if _, err := io.ReadFull(f, table); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: short checksum table: %v", err)
	}
	bf.crcs = make([]uint32, g.NumBlocks())
	for i := range bf.crcs {
		bf.crcs[i] = binary.LittleEndian.Uint32(table[4*i:])
	}
	off := int64(headerSize + len(table))
	bf.offsets = make([]int64, g.NumBlocks()+1)
	for _, id := range g.All() {
		bf.offsets[id] = off
		off += g.VoxelCount(id) * 4
	}
	bf.offsets[g.NumBlocks()] = off
	return bf, nil
}

// Header returns the file's header.
func (bf *BlockFile) Header() Header { return bf.hdr }

// BlockBytes returns the byte size of a block's data.
func (bf *BlockFile) BlockBytes(id grid.BlockID) int64 {
	return bf.offsets[int(id)+1] - bf.offsets[id]
}

// BlockChecksum returns the stored CRC32C of a block; ok is false for an id
// outside the file. It implements faultio.Checksummer.
func (bf *BlockFile) BlockChecksum(id grid.BlockID) (uint32, bool) {
	if int(id) < 0 || int(id) >= len(bf.crcs) {
		return 0, false
	}
	return bf.crcs[id], true
}

// getStaging returns a raw byte buffer of n bytes from the staging pool,
// allocating only when the pool has nothing large enough. The buffer goes
// back through the same pointer (putStaging), so a warm merged run
// allocates not even the pool's slice header.
func (bf *BlockFile) getStaging(n int64) *[]byte {
	bf.stagingGets.Add(1)
	if p, ok := bf.staging.Get().(*[]byte); ok && int64(cap(*p)) >= n {
		*p = (*p)[:n]
		return p
	}
	bf.stagingNews.Add(1)
	b := make([]byte, n)
	return &b
}

func (bf *BlockFile) putStaging(p *[]byte) {
	bf.staging.Put(p)
}

// getBuf returns a decode buffer of exactly n float32s, reusing a recycled
// one when it can.
func (bf *BlockFile) getBuf(n int) []float32 {
	bf.bufGets.Add(1)
	buf, reused := bf.bufs.Get(n)
	if reused {
		bf.bufReuses.Add(1)
	}
	return buf
}

// RecycleBlockBuf hands a decoded block buffer back for reuse by a later
// read. The caller must guarantee no live reference to the slice remains:
// its contents will be overwritten. It implements BlockBufRecycler.
func (bf *BlockFile) RecycleBlockBuf(vals []float32) { bf.bufs.Put(vals) }

// crcError is the permanent checksum fault of a block whose bytes sum to got.
func (bf *BlockFile) crcError(id grid.BlockID, got uint32) error {
	return fmt.Errorf("store: block %d: crc 0x%08x, want 0x%08x: %w",
		id, got, bf.crcs[id], faultio.Permanent(faultio.ErrChecksum))
}

// decode verifies the block's checksum over its raw bytes, a slice of a
// merged run's staging, and decodes them into a pooled float32 buffer.
func (bf *BlockFile) decode(id grid.BlockID, raw []byte) ([]float32, error) {
	if got := f32le.Checksum(raw); got != bf.crcs[id] {
		return nil, bf.crcError(id, got)
	}
	vals := bf.getBuf(len(raw) / 4)
	f32le.Decode(vals, raw)
	return vals, nil
}

// checkID is the permanent fault of an id outside the file, nil for one
// inside it.
func (bf *BlockFile) checkID(id grid.BlockID) error {
	if int(id) < 0 || int(id) >= bf.g.NumBlocks() {
		return fmt.Errorf("store: block %d out of range: %w", id, faultio.ErrPermanent)
	}
	return nil
}

// readInPlace reads one block with one ReadAt straight into the pooled
// buffer it returns and verifies the checksum there; a buffer that fails
// goes back to the pool.
func (bf *BlockFile) readInPlace(id grid.BlockID) ([]float32, error) {
	vals := bf.getBuf(int(bf.BlockBytes(id) / 4))
	got, err := f32le.ReadAt(bf.f, bf.offsets[id], vals)
	if err != nil {
		err = fmt.Errorf("store: block %d: %v", id, err)
	} else if got != bf.crcs[id] {
		err = bf.crcError(id, got)
	}
	if err != nil {
		bf.bufs.Put(vals)
		return nil, err
	}
	return vals, nil
}

// ReadBlock reads one block's voxels, verifying its checksum. A
// mismatch is reported as a permanent faultio.ErrChecksum fault: the bytes
// on disk are rotten and rereading cannot help. The returned slice is owned
// by the caller (until the caller itself recycles it). Safe for concurrent
// use (ReadAt).
func (bf *BlockFile) ReadBlock(id grid.BlockID) ([]float32, error) {
	if err := bf.checkID(id); err != nil {
		return nil, err
	}
	bf.reads.Add(1)
	return bf.readInPlace(id)
}

// ReadBlocks reads many blocks with per-block results, sorting them by file
// offset and merging adjacent blocks into single sequential ReadAt calls
// (capped at maxMergedRunBytes per run), so a miss batch costs near-
// sequential I/O instead of len(ids) random reads. A run of one block is
// read in place like ReadBlock; only a merged run is staged, because its
// one ReadAt feeds several buffers. vals[i]/errs[i]
// correspond to ids[i]; checksum verification stays per block, so one
// rotten block fails alone. ctx is checked between runs. A batch of one id
// (every MemCache.Prefetch) skips the ordering and is read in place. It
// implements BatchBlockReader.
func (bf *BlockFile) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	vals := make([][]float32, len(ids))
	errs := make([]error, len(ids))
	bf.batches.Add(1)

	if len(ids) == 1 {
		if errs[0] = bf.checkID(ids[0]); errs[0] == nil {
			if errs[0] = ctx.Err(); errs[0] == nil {
				bf.countRun(1)
				vals[0], errs[0] = bf.readInPlace(ids[0])
			}
		}
		return vals, errs
	}

	// Order requests by file offset; invalid ids fail individually. Open
	// lays blocks out in id order, so a batch of valid ids that ascend
	// (every MemCache batch) is in file order already and the runs walk it
	// as it lies (order nil); any other batch walks order, its valid
	// indices sorted by offset.
	valid := 0
	for i, id := range ids {
		if errs[i] = bf.checkID(id); errs[i] == nil {
			valid++
		}
	}
	var order []int
	if valid < len(ids) || !ascending(ids) {
		order = make([]int, 0, valid)
		for i := range ids {
			if errs[i] == nil {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Compare(bf.offsets[ids[a]], bf.offsets[ids[b]])
		})
	}

	for runStart := 0; runStart < valid; {
		if err := ctx.Err(); err != nil {
			for p := runStart; p < valid; p++ {
				errs[at(order, p)] = err
			}
			return vals, errs
		}
		// Grow the run while blocks are back-to-back in the file (duplicate
		// ids collapse: a zero-length extension is still adjacent).
		runEnd := runStart + 1
		first := ids[at(order, runStart)]
		runBytes := bf.offsets[first+1] - bf.offsets[first]
		for runEnd < valid {
			prev, next := ids[at(order, runEnd-1)], ids[at(order, runEnd)]
			if bf.offsets[next] != bf.offsets[prev+1] && next != prev {
				break
			}
			grown := bf.offsets[next+1] - bf.offsets[first]
			if grown > maxMergedRunBytes {
				break
			}
			runBytes = grown
			runEnd++
		}
		bf.countRun(runEnd - runStart)
		if runEnd == runStart+1 {
			i := at(order, runStart)
			vals[i], errs[i] = bf.readInPlace(ids[i])
			runStart = runEnd
			continue
		}
		staged := bf.getStaging(runBytes)
		raw := *staged
		if _, err := bf.f.ReadAt(raw, bf.offsets[first]); err != nil {
			for p := runStart; p < runEnd; p++ {
				i := at(order, p)
				errs[i] = fmt.Errorf("store: block %d: %v", ids[i], err)
			}
		} else {
			for p := runStart; p < runEnd; p++ {
				i := at(order, p)
				id := ids[i]
				from := bf.offsets[id] - bf.offsets[first]
				to := bf.offsets[id+1] - bf.offsets[first]
				vals[i], errs[i] = bf.decode(id, raw[from:to])
			}
		}
		bf.putStaging(staged)
		runStart = runEnd
	}
	return vals, errs
}

// at is the index into a batch's ids of its p-th block in file order:
// order[p], or p itself where the ids ascend and ReadBlocks needs no order.
func at(order []int, p int) int {
	if order == nil {
		return p
	}
	return order[p]
}

// countRun counts one ReadAt issued by ReadBlocks for n blocks. Blocks a
// batch never reads — out of range, or left when its ctx ends — are not
// counted as read.
func (bf *BlockFile) countRun(n int) {
	bf.mergedRuns.Add(1)
	bf.batchBlocks.Add(int64(n))
	bf.reads.Add(int64(n))
}

// Close closes the underlying file.
func (bf *BlockFile) Close() error { return bf.f.Close() }
