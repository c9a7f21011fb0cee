package store

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/testutil"
	"repro/internal/volume"
)

func writeTestFile(t *testing.T) (string, *volume.Dataset, *grid.Grid) {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 32) // 32³
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	return path, ds, g
}

func TestWriteOpenRoundTrip(t *testing.T) {
	path, ds, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	hdr := bf.Header()
	if hdr.Res != g.Res() || hdr.Block != g.BlockSize() {
		t.Errorf("header = %+v", hdr)
	}
	if hdr.Version != 2 {
		t.Errorf("Write produced version %d, want 2", hdr.Version)
	}
	if bf.g.NumBlocks() != g.NumBlocks() {
		t.Errorf("blocks = %d", bf.g.NumBlocks())
	}
	// Every block's data must match the dataset's direct samples, and every
	// block must carry a checksum.
	for _, id := range g.All() {
		got, err := bf.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		want := ds.BlockSamples(g, id, 0, 0)
		if len(got) != len(want) {
			t.Fatalf("block %d: %d vs %d values", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %d differs at %d: %g vs %g", id, i, got[i], want[i])
			}
		}
		if _, ok := bf.BlockChecksum(id); !ok {
			t.Fatalf("block %d: no checksum in v2 file", id)
		}
	}
}

func TestWriteRejectsBadVariable(t *testing.T) {
	ds := volume.Ball().Scale(1.0 / 32)
	g, _ := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err := Write(filepath.Join(t.TempDir(), "x"), ds, g, 5); err == nil {
		t.Error("bad variable accepted")
	}
}

func TestWriteAtomic(t *testing.T) {
	ds := volume.Ball().Scale(1.0 / 32)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bvol")
	if err := Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	// No temp-file debris after a successful write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Errorf("dir holds %d entries, want 1", len(ents))
	}
	// Rewriting an existing path replaces it with a complete file.
	if err := Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	bf.Close()
	// A failed write (unwritable directory) leaves nothing at the target.
	missingDir := filepath.Join(dir, "nonexistent")
	bad := filepath.Join(missingDir, "b.bvol")
	if err := Write(bad, ds, g, 0); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("partial file left at %s", bad)
	}
}

// TestOpenRefusesV1Files: a well-formed version-1 file (header + raw block
// data, no checksum table) must not open — its blocks would be served
// unverified — and the error must be permanent and tell the operator how
// to get a readable file.
func TestOpenRefusesV1Files(t *testing.T) {
	path, _, g := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), raw[:headerSize]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	v1 = append(v1, raw[headerSize+4*g.NumBlocks():]...)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := Open(path)
	if err == nil {
		bf.Close()
		t.Fatal("v1 file opened")
	}
	if faultio.Retryable(err) {
		t.Errorf("v1 refusal is retryable: %v", err)
	}
	if !strings.Contains(err.Error(), "re-write with store.Write") {
		t.Errorf("v1 refusal %q does not say how to recover", err)
	}
}

// TestOpenMalformed table-drives Open over corrupted variants of a valid
// file: truncated headers, bad magic, unknown versions, inconsistent block
// counts, and short checksum/data sections.
func TestOpenMalformed(t *testing.T) {
	path, _, g := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crcTable := 4 * g.NumBlocks()
	setField := func(b []byte, i int, v int32) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", raw[:headerSize/2]},
		{"header only", raw[:headerSize]},
		{"bad magic", setField(raw, 0, 0x12345678)},
		{"unknown version", setField(raw, 1, 99)},
		{"zero version", setField(raw, 1, 0)},
		{"block count mismatch", setField(raw, 9, int32(g.NumBlocks()+1))},
		{"zero resolution", setField(raw, 2, 0)},
		{"short checksum table", raw[:headerSize+crcTable/2]},
		{"short data", raw[:len(raw)-len(raw)/4]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.bvol")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if bf, err := Open(p); err == nil {
				bf.Close()
				t.Error("malformed file accepted")
			}
		})
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a block file at all........................"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestChecksumRejectsBitFlip proves the v2 round trip: a single flipped bit
// anywhere in a block's data section fails that block's read with a
// checksum fault while other blocks stay readable.
func TestChecksumRejectsBitFlip(t *testing.T) {
	path, _, g := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of block 0's data.
	dataStart := headerSize + 4*g.NumBlocks()
	raw[dataStart+17] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := Open(path) // size is intact, so Open succeeds
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	_, err = bf.ReadBlock(0)
	if err == nil {
		t.Fatal("bit-flipped block read succeeded")
	}
	if !errors.Is(err, faultio.ErrChecksum) {
		t.Errorf("error %v is not a checksum fault", err)
	}
	if faultio.Retryable(err) {
		t.Error("on-disk corruption classified retryable")
	}
	// Undamaged blocks still verify and read.
	if _, err := bf.ReadBlock(1); err != nil {
		t.Errorf("clean block rejected: %v", err)
	}
}

func TestReadBlockOutOfRange(t *testing.T) {
	path, _, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	_, err = bf.ReadBlock(grid.BlockID(g.NumBlocks()))
	if err == nil {
		t.Error("out-of-range block accepted")
	}
	if faultio.Retryable(err) {
		t.Error("out-of-range error classified retryable")
	}
	if _, err := bf.ReadBlock(-1); err == nil {
		t.Error("negative block accepted")
	}
}

func TestBlockBytesPartialBlocks(t *testing.T) {
	// A non-divisible resolution produces clipped edge blocks whose file
	// footprint must match their voxel counts.
	ds := volume.LiftedMixFrac().Scale(0.05) // 40x34x16 (clamped)
	g, err := ds.GridWithBlockCount(24)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.bvol")
	if err := Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	for _, id := range g.All() {
		if got, want := bf.BlockBytes(id), g.VoxelCount(id)*4; got != want {
			t.Fatalf("block %d: %d bytes, want %d", id, got, want)
		}
		vals, err := bf.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(vals)) != g.VoxelCount(id) {
			t.Fatalf("block %d: %d values", id, len(vals))
		}
	}
}

// getOne is GetBatch of one id.
func getOne(ctx context.Context, c *MemCache, id grid.BlockID) ([]float32, bool, error) {
	vals, hit, errs := c.GetBatch(ctx, []grid.BlockID{id})
	return vals[0], hit[0], errs[0]
}

// resident reports whether the block is in c's memory, without touching it.
func resident(c *MemCache, id grid.BlockID) bool {
	return len(c.AppendMissing(nil, []grid.BlockID{id})) == 0
}

// cached is GetResident of one block: its voxels when resident, counted as
// a hit.
func cached(c *MemCache, id grid.BlockID) ([]float32, bool) {
	var vals [1][]float32
	miss := c.GetResident(vals[:], []grid.BlockID{id}, nil)
	return vals[0], len(miss) == 0
}

// TestGetResidentEqualsPerBlockLoop: one GetResident over a list with
// duplicates and ids outside the grid serves, counts and touches exactly what
// a probe per block in the same order does, so the LRU victims that follow
// are the same.
func TestGetResidentEqualsPerBlockLoop(t *testing.T) {
	ctx := context.Background()
	mk := func() (*MemCache, *[]grid.BlockID) {
		c, err := NewMemCache(&countingReader{reads: map[grid.BlockID]int{}}, 8*4, cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		ev := new([]grid.BlockID)
		c.OnEvict(func(id grid.BlockID, _ []float32) { *ev = append(*ev, id) })
		for id := grid.BlockID(0); id < 8; id++ {
			if err := c.Prefetch(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		return c, ev
	}
	batch, batchEv := mk()
	loop, loopEv := mk()

	ids := []grid.BlockID{5, 2, 9, 5, -1, 0, 1 << 20, 2, 7}
	vals := make([][]float32, len(ids))
	miss := batch.GetResident(vals, ids, nil)
	var wantMiss []int
	for i, id := range ids {
		v, ok := cached(loop, id)
		if !ok {
			wantMiss = append(wantMiss, i)
		}
		if !slices.Equal(vals[i], v) {
			t.Errorf("ids[%d] = %d: probe served %v, per-block %v", i, id, vals[i], v)
		}
	}
	if !slices.Equal(miss, wantMiss) || !slices.Equal(miss, []int{2, 4, 6}) {
		t.Errorf("misses at %v, per-block %v, want [2 4 6]", miss, wantMiss)
	}
	if b, l := batch.Counters().Hits, loop.Counters().Hits; b != l || b != 6 {
		t.Errorf("%d hits counted, per-block %d, want 6", b, l)
	}
	for id := grid.BlockID(10); id < 18; id++ {
		for _, c := range []*MemCache{batch, loop} {
			if err := c.Prefetch(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !slices.Equal(*batchEv, *loopEv) || len(*batchEv) != 8 {
		t.Errorf("evicted %v after the probe, %v after the per-block loop", *batchEv, *loopEv)
	}
}

func TestMemCacheHitMiss(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	ctx := context.Background()
	blockBytes := bf.BlockBytes(0)
	c, err := NewMemCache(bf, 4*blockBytes, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := getOne(ctx, c, 1); err != nil || hit {
		t.Fatalf("cold GetBatch: hit=%v err=%v", hit, err)
	}
	if _, hit, err := getOne(ctx, c, 1); err != nil || !hit {
		t.Fatalf("warm GetBatch: hit=%v err=%v", hit, err)
	}
	if cc := c.Counters(); cc.Hits != 1 || cc.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", cc.Hits, cc.Misses)
	}
	if !resident(c, 1) {
		t.Error("block 1 not cached")
	}
}

func TestMemCacheContextCanceled(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	c, _ := NewMemCache(bf, 4*bf.BlockBytes(0), cache.NewLRU())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := getOne(ctx, c, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("GetBatch with canceled ctx: %v", err)
	}
	if err := c.Prefetch(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Prefetch with canceled ctx: %v", err)
	}
	if c.Len() != 0 {
		t.Error("canceled reads populated the cache")
	}
}

// TestSingleReadAllocations pins what one block read costs on its way to
// the file: a prefetch miss is the reader's two result slices, its
// in-flight call a reused one, and a one-id ReadBlocks is those two result
// slices, no ordering scratch. The block's buffer comes back from the
// recycler in both.
func TestSingleReadAllocations(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	c, err := NewMemCache(bf, bf.BlockBytes(0), cache.NewLRU()) // room for one block
	if err != nil {
		t.Fatal(err)
	}
	c.EnableRecycling()
	ctx := context.Background()
	id := grid.BlockID(0)
	prefetch := func() { // each evicts the other block, whose buffer the next read reuses
		id ^= 1
		if err := c.Prefetch(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	prefetch()
	prefetch()
	if allocs := testing.AllocsPerRun(100, prefetch); allocs != 2 { // ReadBlocks' vals and errs
		t.Errorf("a prefetch miss makes %v allocations, want 2", allocs)
	}
	if cc := c.Counters(); cc.Evictions < 100 || cc.Recycled != cc.Evictions {
		t.Fatalf("%d evictions, %d recycled: the prefetches did not all miss", cc.Evictions, cc.Recycled)
	}

	ids := []grid.BlockID{5}
	if allocs := testing.AllocsPerRun(100, func() {
		vals, errs := bf.ReadBlocks(ctx, ids)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		bf.RecycleBlockBuf(vals[0])
	}); allocs > 2 {
		t.Errorf("a one-id ReadBlocks makes %v allocations, want at most 2", allocs)
	}
}

func TestMemCacheEviction(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	ctx := context.Background()
	blockBytes := bf.BlockBytes(0)
	c, _ := NewMemCache(bf, 3*blockBytes, cache.NewLRU())
	for id := grid.BlockID(0); id < 6; id++ {
		if _, _, err := getOne(ctx, c, id); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	if c.Used() > 3*blockBytes {
		t.Errorf("Used = %d over capacity", c.Used())
	}
	// LRU order: 3, 4, 5 remain.
	for id := grid.BlockID(3); id < 6; id++ {
		if !resident(c, id) {
			t.Errorf("recent block %d evicted", id)
		}
	}
}

func TestMemCachePrefetch(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	ctx := context.Background()
	c, _ := NewMemCache(bf, 16*bf.BlockBytes(0), cache.NewLRU())
	if err := c.Prefetch(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if !resident(c, 2) {
		t.Error("prefetched block absent")
	}
	if cc := c.Counters(); cc.Hits != 0 || cc.Misses != 0 {
		t.Error("prefetch perturbed stats")
	}
	// A GetBatch after it hits.
	if _, hit, err := getOne(ctx, c, 2); err != nil || !hit {
		t.Fatalf("post-prefetch GetBatch: hit=%v err=%v", hit, err)
	}
	if c.Counters().Hits != 1 {
		t.Error("post-prefetch GetBatch not a hit")
	}
}

func TestMemCacheValidation(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	if _, err := NewMemCache(nil, 100, cache.NewLRU()); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := NewMemCache(bf, 0, cache.NewLRU()); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewMemCache(bf, 100, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestMemCacheConcurrentAccess(t *testing.T) {
	path, _, g := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	c, _ := NewMemCache(bf, 8*bf.BlockBytes(0), cache.NewLRU())
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := grid.BlockID((seed*7 + i*13) % g.NumBlocks())
				if _, _, err := getOne(ctx, c, id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Used() > 8*bf.BlockBytes(0) {
		t.Errorf("capacity violated under concurrency: %d", c.Used())
	}
}

func TestMemCacheOversizedBlockUncached(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	// Capacity below one block: every GetBatch succeeds but nothing caches.
	c, _ := NewMemCache(bf, bf.BlockBytes(0)-1, cache.NewLRU())
	if _, _, err := getOne(context.Background(), c, 0); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("oversized block cached")
	}
}

// TestMemCacheOverInjector wires the full fault stack: cache over injector
// over file. Transient injected failures surface from GetBatch (the retry
// policy lives above, in ooc), and injected latency respects ctx deadlines.
func TestMemCacheOverInjector(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, _ := Open(path)
	defer bf.Close()
	inj := faultio.NewInjector(bf, faultio.InjectorConfig{Seed: 42, FailRate: 1})
	c, err := NewMemCache(inj, 8*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = getOne(context.Background(), c, 0)
	if err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if !faultio.Retryable(err) {
		t.Errorf("transient injected failure not retryable: %v", err)
	}
}

// gatedReader is a counting backing store whose reads block until released,
// so tests can pin the exact interleaving of concurrent cache misses.
type gatedReader struct {
	reads   atomic.Int64
	entered chan struct{} // one signal per read entering the backing store
	release chan struct{} // closed to let all entered reads return

	mu  sync.Mutex
	ids []grid.BlockID // the blocks read, in the order they entered
}

func (g *gatedReader) ReadBlock(id grid.BlockID) ([]float32, error) {
	g.reads.Add(1)
	g.mu.Lock()
	g.ids = append(g.ids, id)
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	return []float32{float32(id), 1, 2, 3}, nil
}

func (g *gatedReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, g.ReadBlock)
}

func (g *gatedReader) RecycleBlockBuf([]float32) {}

// order returns the blocks read so far, in the order they entered.
func (g *gatedReader) order() []grid.BlockID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.ids)
}

// TestCoalescingSingleBackingRead is the acceptance test for request
// coalescing: N concurrent requests (Prefetch and GetBatch mixed) for
// one uncached block must cause exactly one backing-store read.
func TestCoalescingSingleBackingRead(t *testing.T) {
	gr := &gatedReader{entered: make(chan struct{}, 16), release: make(chan struct{})}
	c, err := NewMemCache(gr, 1<<20, cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const id = grid.BlockID(7)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: performs the one real read
		defer wg.Done()
		if _, _, err := getOne(ctx, c, id); err != nil {
			t.Error(err)
		}
	}()
	<-gr.entered // leader is inside the backing store; block 7 is in flight

	// Everyone arriving now must coalesce onto the leader's read: the block
	// is not cached yet (leader is blocked), so any duplicate read would
	// enter the gated store and be counted.
	const followers = 9
	results := make([][]float32, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				v, hit, err := getOne(ctx, c, id)
				if err != nil || !hit {
					t.Errorf("follower GetBatch of one: hit=%v err=%v", hit, err)
				}
				results[i] = v
			case 1:
				if err := c.Prefetch(ctx, id); err != nil {
					t.Errorf("follower Prefetch: %v", err)
				}
			case 2:
				vals, hits, errs := c.GetBatch(ctx, []grid.BlockID{id})
				if errs[0] != nil || !hits[0] {
					t.Errorf("follower GetBatch: hit=%v err=%v", hits[0], errs[0])
				}
				results[i] = vals[0]
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the in-flight wait
	close(gr.release)
	wg.Wait()

	if n := gr.reads.Load(); n != 1 {
		t.Fatalf("backing store read %d times for one block, want exactly 1", n)
	}
	for i, v := range results {
		if v != nil && v[0] != float32(id) {
			t.Errorf("follower %d got block %v", i, v[0])
		}
	}
	if co := c.Counters().Coalesced; co == 0 {
		t.Error("no coalesced requests recorded")
	}
}

// ctxGatedReader is a BlockFile whose batch reads wait at a gate: until
// release is closed, or until the read's own ctx ends, which fails it with
// the ctx's error as a reader does.
type ctxGatedReader struct {
	*BlockFile
	entered chan struct{} // one signal per batch read reaching the gate
	release chan struct{}
}

func (g *ctxGatedReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
		return g.BlockFile.ReadBlocks(ctx, ids)
	case <-ctx.Done():
		return testutil.ReadEach(ctx, ids, g.BlockFile.ReadBlock)
	}
}

// TestFollowerOutlivesLeaderCancel: a read shared through the cache belongs
// to the cache, not to the caller that started it. The leader's GetBatch is
// canceled while its read waits at the gate; a follower under
// context.Background() — a demand GetBatch, or a Prefetch — must still get
// the block's voxels, by reading it again, and not the leader's
// context.Canceled, which faultio.Retryable would take as final.
func TestFollowerOutlivesLeaderCancel(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	const id = grid.BlockID(3)
	want, err := bf.ReadBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, follower := range []string{"GetBatch", "Prefetch"} {
		t.Run(follower, func(t *testing.T) {
			gr := &ctxGatedReader{BlockFile: bf, entered: make(chan struct{}, 4), release: make(chan struct{})}
			c, err := NewMemCache(gr, 1<<20, cache.NewLRU())
			if err != nil {
				t.Fatal(err)
			}
			leaderCtx, cancel := context.WithCancel(context.Background())
			leader := make(chan error, 1)
			go func() {
				_, _, err := getOne(leaderCtx, c, id)
				leader <- err
			}()
			<-gr.entered // the leader's read holds block 3 in flight

			type result struct {
				vals []float32
				err  error
			}
			done := make(chan result, 1)
			go func() {
				if follower == "GetBatch" {
					v, _, err := getOne(context.Background(), c, id)
					done <- result{v, err}
					return
				}
				err := c.Prefetch(context.Background(), id)
				v, _ := cached(c, id)
				done <- result{v, err}
			}()
			// Let the follower join the read in flight. A follower that
			// arrives late reads the block itself and passes without
			// testing the rule, never failing a correct cache.
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := <-leader; !errors.Is(err, context.Canceled) {
				t.Fatalf("leader: %v, want context.Canceled", err)
			}
			var got result
			select {
			case <-gr.entered: // the follower reads the block again
				close(gr.release)
				got = <-done
			case got = <-done:
				close(gr.release)
			}
			if got.err != nil {
				t.Fatalf("follower %s: %v", follower, got.err)
			}
			if !slices.Equal(got.vals, want) {
				t.Fatalf("follower %s: voxels differ from the block's", follower)
			}
		})
	}
}

// TestIOStatsCountOnlyBlocksRead: a batch that reads nothing — its ctx
// canceled, or its ids out of range — adds nothing to the blocks read.
func TestIOStatsCountOnlyBlocksRead(t *testing.T) {
	path, _, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := grid.BlockID(g.NumBlocks())
	for _, batch := range []struct {
		ctx context.Context
		ids []grid.BlockID
	}{
		{ctx, []grid.BlockID{0, 1, 2}},
		{context.Background(), []grid.BlockID{n, n + 1}},
	} {
		before := bf.IOStats()
		if _, errs := bf.ReadBlocks(batch.ctx, batch.ids); errs[0] == nil {
			t.Fatalf("batch %v: read", batch.ids)
		}
		after := bf.IOStats()
		if after.Reads != before.Reads || after.BatchBlocks != before.BatchBlocks {
			t.Errorf("batch %v read nothing, counted Reads +%d, BatchBlocks +%d", batch.ids,
				after.Reads-before.Reads, after.BatchBlocks-before.BatchBlocks)
		}
	}
	if _, errs := bf.ReadBlocks(context.Background(), []grid.BlockID{0, 1, n}); errs[0] != nil || errs[2] == nil {
		t.Fatalf("mixed batch: %v", errs)
	}
	if st := bf.IOStats(); st.Reads != 2 || st.BatchBlocks != 2 {
		t.Errorf("after a batch of two blocks and a bad id: Reads %d, BatchBlocks %d, want 2 and 2", st.Reads, st.BatchBlocks)
	}
}

func TestReadBlocksMatchesReadBlock(t *testing.T) {
	path, ds, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	n := grid.BlockID(g.NumBlocks())
	for _, tc := range []struct {
		name string
		ids  []grid.BlockID
	}{
		// Scrambled order with duplicates and an invalid id: sorted by offset.
		{"scrambled", []grid.BlockID{5, 0, 63, 5, 17, n, 16, 1}},
		// Ascending and all valid: walked as the ids lie, no sort.
		{"ascending", []grid.BlockID{0, 1, 5, 16, 17, 63}},
		// Ascending with an invalid id at each end: sorted like any other.
		{"ascending-invalid", []grid.BlockID{-1, 0, 1, 5, 16, 17, 63, n}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := bf.IOStats()
			vals, errs := bf.ReadBlocks(context.Background(), tc.ids)
			for i, id := range tc.ids {
				if id < 0 || id >= n {
					if errs[i] == nil {
						t.Errorf("invalid id %d accepted", id)
					}
					continue
				}
				if errs[i] != nil {
					t.Fatalf("block %d: %v", id, errs[i])
				}
				want := ds.BlockSamples(g, id, 0, 0)
				if len(vals[i]) != len(want) {
					t.Fatalf("block %d: %d values, want %d", id, len(vals[i]), len(want))
				}
				for j := range want {
					if vals[i][j] != want[j] {
						t.Fatalf("block %d differs at %d", id, j)
					}
				}
			}
			st := bf.IOStats()
			if d := st.Batches - before.Batches; d != 1 {
				t.Errorf("batches = %d", d)
			}
			// 0,1 and 16,17 are adjacent in file order and merge (so does the
			// duplicate 5): runs 0–1, 5, 16–17 and 63.
			if d := st.MergedRuns - before.MergedRuns; d != 4 {
				t.Errorf("%d runs, want 4", d)
			}
		})
	}
}

func TestReadBlocksAllMergesToFewRuns(t *testing.T) {
	path, _, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	vals, errs := bf.ReadBlocks(context.Background(), g.All())
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("block %d: %v", i, errs[i])
		}
		if int64(len(vals[i])) != g.VoxelCount(grid.BlockID(i)) {
			t.Fatalf("block %d: %d values", i, len(vals[i]))
		}
	}
	st := bf.IOStats()
	// The whole file is contiguous: run count is bounded by the staging cap,
	// not the block count.
	maxRuns := int64(1) + int64(g.NumBlocks())*bf.BlockBytes(0)/maxMergedRunBytes + 1
	if st.MergedRuns > maxRuns {
		t.Errorf("%d runs for a fully contiguous batch of %d blocks (want ≤ %d)",
			st.MergedRuns, g.NumBlocks(), maxRuns)
	}
}

func TestReadBlocksPartialBlocks(t *testing.T) {
	// Clipped edge blocks have differing sizes; merged-run slicing must
	// still cut each block's exact byte range.
	ds := volume.LiftedMixFrac().Scale(0.05)
	g, err := ds.GridWithBlockCount(24)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.bvol")
	if err := Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	vals, errs := bf.ReadBlocks(context.Background(), g.All())
	for _, id := range g.All() {
		if errs[id] != nil {
			t.Fatalf("block %d: %v", id, errs[id])
		}
		want := ds.BlockSamples(g, id, 0, 0)
		if len(vals[id]) != len(want) {
			t.Fatalf("block %d: %d values, want %d", id, len(vals[id]), len(want))
		}
		for j := range want {
			if vals[id][j] != want[j] {
				t.Fatalf("block %d differs at %d", id, j)
			}
		}
	}
}

// TestReadBlocksPerBlockChecksumFault pins batch fault semantics: one
// bit-rotted block inside a merged run fails alone, with the same permanent
// checksum classification a single ReadBlock would produce.
func TestReadBlocksPerBlockChecksumFault(t *testing.T) {
	path, _, g := writeTestFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataStart := headerSize + 4*g.NumBlocks()
	blockBytes := int(g.VoxelCount(0)) * 4
	raw[dataStart+2*blockBytes+33] ^= 0x10 // rot block 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	ids := []grid.BlockID{0, 1, 2, 3, 4} // contiguous: one merged run
	vals, errs := bf.ReadBlocks(context.Background(), ids)
	for i, id := range ids {
		if id == 2 {
			if !errors.Is(errs[i], faultio.ErrChecksum) {
				t.Errorf("rotted block error = %v, want checksum fault", errs[i])
			}
			if faultio.Retryable(errs[i]) {
				t.Error("on-disk rot classified retryable")
			}
			continue
		}
		if errs[i] != nil || vals[i] == nil {
			t.Errorf("healthy block %d: %v", id, errs[i])
		}
	}
}

// TestGetBatchUnderInjectedFaults runs a miss batch through the fault
// injector: the injector splits the batch, so a lost block fails alone and
// its neighbors are served and cached.
func TestGetBatchUnderInjectedFaults(t *testing.T) {
	path, ds, _ := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	lost := grid.BlockID(3)
	inj := faultio.NewInjector(bf, faultio.InjectorConfig{FailBlocks: []grid.BlockID{lost}})
	c, err := NewMemCache(inj, ds.TotalBytes(), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	ids := []grid.BlockID{5, 3, 1, 0}
	vals, hits, errs := c.GetBatch(context.Background(), ids)
	for i, id := range ids {
		if id == lost {
			if errs[i] == nil || !errors.Is(errs[i], faultio.ErrPermanent) {
				t.Errorf("lost block: err = %v, want permanent", errs[i])
			}
			if vals[i] != nil {
				t.Error("lost block returned data")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("block %d: %v", id, errs[i])
		}
		if hits[i] {
			t.Errorf("cold block %d reported as hit", id)
		}
		if !resident(c, id) {
			t.Errorf("block %d not cached after batch", id)
		}
	}
	if resident(c, lost) {
		t.Error("failed block cached")
	}
}

// TestRecyclingReusesEvictedBuffers churns a tiny cache with recycling on:
// evicted decode buffers must be reused by later reads, and the data served
// must stay correct.
func TestRecyclingReusesEvictedBuffers(t *testing.T) {
	path, ds, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	c, err := NewMemCache(bf, 2*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableRecycling()
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for id := 0; id < g.NumBlocks(); id += 7 {
			vals, _, err := getOne(ctx, c, grid.BlockID(id))
			if err != nil {
				t.Fatal(err)
			}
			want := ds.BlockSamples(g, grid.BlockID(id), 0, 0)
			for j := range want {
				if vals[j] != want[j] {
					t.Fatalf("round %d block %d differs at %d", round, id, j)
				}
			}
		}
	}
	if n := c.Counters().Recycled; n == 0 {
		t.Error("no buffers recycled despite churn")
	}
	if st := bf.IOStats(); st.BufReuses == 0 {
		t.Error("no decode buffers reused despite recycling")
	}
}

// TestStagingPoolReuse pins the staging-buffer pool where staging is left:
// a merged run, whose one ReadAt feeds several block buffers. Repeated runs
// must stop allocating staging memory after the first, and a block read
// alone — ReadBlock, or a run of one in a batch — lands in the buffer it
// returns and takes no staging at all.
func TestStagingPoolReuse(t *testing.T) {
	path, _, _ := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	for i := 0; i < 32; i++ {
		if _, err := bf.ReadBlock(grid.BlockID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Three runs of one: no two of these blocks are adjacent in the file.
	if _, errs := bf.ReadBlocks(context.Background(), []grid.BlockID{9, 3, 6}); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatal(errs)
	}
	if st := bf.IOStats(); st.StagingGets != 0 || st.MergedRuns != 3 {
		t.Fatalf("blocks read alone took staging %d times over %d runs, want 0 over 3", st.StagingGets, st.MergedRuns)
	}
	for i := 0; i < 32; i++ {
		if _, errs := bf.ReadBlocks(context.Background(), []grid.BlockID{4, 5, 6, 7}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	st := bf.IOStats()
	if st.StagingGets != 32 {
		t.Fatalf("staging gets = %d, want one per merged run", st.StagingGets)
	}
	// sync.Pool may shed buffers under GC pressure (and drops puts at
	// random under the race detector), so only pin that reuse happens at
	// all: 32 serial runs must not each allocate a fresh staging buffer.
	if st.StagingNews >= st.StagingGets {
		t.Errorf("staging allocated %d times in %d serial runs; pool never reused",
			st.StagingNews, st.StagingGets)
	}
}

// TestInertInjectorForwardsBatches pins the pass-through: an injector with
// a zero config left in the stack must not defeat merged batch I/O.
func TestInertInjectorForwardsBatches(t *testing.T) {
	path, ds, _ := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	inj := faultio.NewInjector(bf, faultio.InjectorConfig{})
	c, err := NewMemCache(inj, ds.TotalBytes(), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	ids := []grid.BlockID{0, 1, 2, 3}
	if _, _, errs := c.GetBatch(context.Background(), ids); errs[0] != nil {
		t.Fatal(errs[0])
	}
	st := bf.IOStats()
	if st.Batches != 1 || st.MergedRuns != 1 {
		t.Errorf("inert injector split the batch: %+v", st)
	}
	if got := inj.Stats().Reads; got != int64(len(ids)) {
		t.Errorf("injector counted %d reads, want %d", got, len(ids))
	}
}

// TestReadBlocksCanceledContext pins the merged-run loop's cancellation
// contract: a context that is already done fails every remaining block with
// the context error before any physical read is issued — the behavior the
// block service relies on to stop serving a disconnected session.
func TestReadBlocksCanceledContext(t *testing.T) {
	path, _, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vals, errs := bf.ReadBlocks(ctx, g.All())
	for i := range errs {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("block %d: err = %v, want context.Canceled", i, errs[i])
		}
		if vals[i] != nil {
			t.Fatalf("block %d: data returned despite cancellation", i)
		}
	}
	if st := bf.IOStats(); st.MergedRuns != 0 {
		t.Errorf("%d physical reads issued under a canceled context", st.MergedRuns)
	}
}

// TestMemCacheEvictionCallback pins the write-behind feed: the OnEvict
// callback must fire for every policy eviction, in eviction order, with the
// block's decoded voxels still intact — even with recycling enabled, where
// the buffer is handed back for reuse immediately after the callback
// returns.
func TestMemCacheEvictionCallback(t *testing.T) {
	path, ds, g := writeTestFile(t)
	bf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	c, err := NewMemCache(bf, 2*bf.BlockBytes(0), cache.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableRecycling()
	var evicted []grid.BlockID
	c.OnEvict(func(id grid.BlockID, vals []float32) {
		// vals must hold the block's true data at callback time.
		want := ds.BlockSamples(g, id, 0, 0)
		if len(vals) != len(want) {
			t.Errorf("evicted block %d: %d vals, want %d", id, len(vals), len(want))
			return
		}
		for j := range want {
			if vals[j] != want[j] {
				t.Errorf("evicted block %d differs at %d", id, j)
				return
			}
		}
		evicted = append(evicted, id)
	})
	ctx := context.Background()
	for id := grid.BlockID(0); id < 5; id++ {
		if _, _, err := getOne(ctx, c, id); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2, LRU: reads 0..4 evict 0, 1, 2 in order.
	want := []grid.BlockID{0, 1, 2}
	if len(evicted) != len(want) {
		t.Fatalf("evictions = %v, want %v", evicted, want)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("evictions = %v, want %v", evicted, want)
		}
	}
	if n := c.Counters().Recycled; n == 0 {
		t.Error("callback must not suppress recycling")
	}
	// nil unregisters: further evictions are silent.
	c.OnEvict(nil)
	if _, _, err := getOne(ctx, c, 7); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != len(want) {
		t.Fatalf("callback fired after unregistering: %v", evicted)
	}
}

// recyclingReader serves fresh 4-voxel blocks and records every buffer
// handed back to it.
type recyclingReader struct{ got [][]float32 }

func (r *recyclingReader) ReadBlock(grid.BlockID) ([]float32, error) { return make([]float32, 4), nil }
func (r *recyclingReader) RecycleBlockBuf(v []float32)               { r.got = append(r.got, v) }
func (r *recyclingReader) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, r.ReadBlock)
}

// TestReleaseRetiresEvictedBuffers pins the owner's release: a buffer
// evicted while its slice is handed out reaches the reader's pool only at
// the next Release, never before; past the cap the overflow is dropped and
// counted, never recycled; and a cache nobody releases recycles nothing.
func TestReleaseRetiresEvictedBuffers(t *testing.T) {
	rr := &recyclingReader{}
	c, err := NewMemCache(rr, 16, cache.NewLRU()) // room for one block
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	get := func(id grid.BlockID) []float32 {
		t.Helper()
		vals, _, err := getOne(ctx, c, id)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	get(0)
	get(1) // evicts 0 from a cache nobody releases: left to the GC
	if c.RecyclingEnabled() || len(rr.got) != 0 {
		t.Fatalf("unreleased cache: recycling %v, %d buffers recycled", c.RecyclingEnabled(), len(rr.got))
	}

	c.Release()
	if !c.RecyclingEnabled() || len(rr.got) != 0 {
		t.Fatalf("first Release: recycling %v, %d buffers recycled; want true, 0 (block 0 went before it)",
			c.RecyclingEnabled(), len(rr.got))
	}
	held := get(2) // evicts 1
	get(3)         // evicts 2 while held is handed out
	if len(rr.got) != 0 {
		t.Fatalf("%d buffers reached the pool before the release", len(rr.got))
	}
	c.Release()
	if len(rr.got) != 2 || &rr.got[1][0] != &held[0] {
		t.Fatalf("Release recycled %d buffers, want blocks 1 and 2, the held one last", len(rr.got))
	}

	rr.got = nil
	for id := grid.BlockID(4); id < 4+2*maxFreeBufs; id++ {
		get(id) // 2·maxFreeBufs evictions, blocks 3 onwards
	}
	cc := c.Counters()
	if len(rr.got) != 0 || cc.RetireDropped != maxFreeBufs {
		t.Fatalf("past the cap: %d recycled early, %d dropped; want 0, %d", len(rr.got), cc.RetireDropped, maxFreeBufs)
	}
	c.Release()
	cc = c.Counters()
	if len(rr.got) != maxFreeBufs || cc.Recycled != 2+maxFreeBufs || cc.RecycledBytes != 16*cc.Recycled {
		t.Fatalf("Release past the cap recycled %d (counted %d, %d bytes), want %d",
			len(rr.got), cc.Recycled, cc.RecycledBytes, maxFreeBufs)
	}
}
