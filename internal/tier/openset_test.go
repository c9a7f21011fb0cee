package tier

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/testutil"
)

// countingFS counts the read side's file operations: every Open, and the
// positioned reads and closes of the files Open returned. With stale set,
// Open hands back a descriptor already closed, as if the open set had shut
// it before the read began.
type countingFS struct {
	faultio.OSFS
	opens, readAts, closes atomic.Int64
	stale                  atomic.Bool
}

func (c *countingFS) Open(path string) (faultio.File, error) {
	f, err := c.OSFS.Open(path)
	if err != nil {
		return nil, err
	}
	c.opens.Add(1)
	if c.stale.Load() {
		f.Close()
	}
	return &countedFile{File: f, fs: c}, nil
}

type countedFile struct {
	faultio.File
	fs *countingFS
}

func (f *countedFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.readAts.Add(1)
	return f.File.ReadAt(p, off)
}

func (f *countedFile) Close() error {
	f.fs.closes.Add(1)
	return f.File.Close()
}

// withOpenBound lowers the open set's bound to n descriptors. Call it before
// the tier's first Get.
func withOpenBound(tr *Tier, n int) {
	tr.open.Capacity = int64(n)
}

// checkOpenSet holds the open set to its invariants: no more descriptors
// than its bound, and a descriptor only for a block the index holds.
func checkOpenSet(t *testing.T, tr *Tier) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	held := 0
	for i, f := range tr.fds {
		if id := grid.BlockID(i); f != nil {
			held++
			if !tr.lvl.Contains(id) || !tr.open.Contains(id) {
				t.Errorf("descriptor held for block %d: resident %v, in the set %v",
					id, tr.lvl.Contains(id), tr.open.Contains(id))
			}
		}
	}
	if held != tr.open.Len() || int64(held) > tr.open.Capacity {
		t.Errorf("%d descriptors held, the set counts %d, bound %d", held, tr.open.Len(), tr.open.Capacity)
	}
}

// getChecked reads block id through the tier, holds its voxels to the
// payload put spilled, and hands the buffer back as the DRAM cache would.
func getChecked(t *testing.T, tr *Tier, id grid.BlockID, n int) bool {
	vals, ok := tr.Get(id)
	if !ok {
		return false
	}
	want := block(id, n)
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("block %d value %d = %v, want %v", id, i, vals[i], want[i])
			break
		}
	}
	tr.bufs.Put(vals)
	return true
}

// TestSpillHitIsTwoReads pins what a warm spill hit costs the file system:
// no open and no close, and exactly two positioned reads — the header, then
// the payload. Every descriptor the tier opened is closed by Close.
func TestSpillHitIsTwoReads(t *testing.T) {
	const blocks, n = 8, 64
	fsys := &countingFS{}
	tr := openTier(t, t.TempDir(), blocks, n, func(c *Config) { c.FS = fsys })
	for id := grid.BlockID(0); id < blocks; id++ {
		put(tr, id, block(id, n))
	}
	for id := grid.BlockID(0); id < blocks; id++ {
		if !getChecked(t, tr, id, n) {
			t.Fatalf("block %d not served", id)
		}
	}
	if got := fsys.opens.Load(); got != blocks {
		t.Fatalf("first pass opened %d files, want one per block (%d)", got, blocks)
	}
	opens, reads, closes := fsys.opens.Load(), fsys.readAts.Load(), fsys.closes.Load()
	const passes = 3
	for p := 0; p < passes; p++ {
		for id := grid.BlockID(0); id < blocks; id++ {
			if !getChecked(t, tr, id, n) {
				t.Fatalf("pass %d: block %d not served", p, id)
			}
		}
	}
	hits := int64(passes * blocks)
	if got := fsys.opens.Load() - opens; got != 0 {
		t.Errorf("warm hits opened %d files", got)
	}
	if got := fsys.closes.Load() - closes; got != 0 {
		t.Errorf("warm hits closed %d files", got)
	}
	if got := fsys.readAts.Load() - reads; got != 2*hits {
		t.Errorf("%d hits took %d positioned reads, want %d", hits, got, 2*hits)
	}
	checkOpenSet(t, tr)
	tr.Close()
	if o, c := fsys.opens.Load(), fsys.closes.Load(); o != c {
		t.Errorf("after Close: %d opens, %d closes", o, c)
	}
	checkOpenSet(t, tr)
	if !getChecked(t, tr, 0, n) { // a Get after Close reads through its own descriptor
		t.Error("a Get after Close missed")
	}
	if o, c := fsys.opens.Load(), fsys.closes.Load(); o != c {
		t.Errorf("a Get after Close kept its descriptor: %d opens, %d closes", o, c)
	}
}

// TestOpenSetBounded: with more resident entries than the open set's bound,
// and evictions churning the index, the set never holds more descriptors
// than the bound nor one for a block that left the index; every block
// still reads back whole, no read counts a disk fault, and Close leaves no
// descriptor open — first one goroutine with the set checked after every
// step, then several racing reads against spills.
func TestOpenSetBounded(t *testing.T) {
	const resident, bound, ids, n = 10, 3, 14, 32
	fsys := &countingFS{}
	tr := openTier(t, t.TempDir(), resident, n, func(c *Config) { c.FS = fsys })
	withOpenBound(tr, bound)
	for id := grid.BlockID(0); id < bound; id++ {
		put(tr, id, block(id, n))
		getChecked(t, tr, id, n)
	}
	// The blocks read first hold the set, and are the index's first victims
	// once later spills overflow it: their descriptors must leave with them.
	for id := grid.BlockID(bound); id < ids; id++ {
		put(tr, id, block(id, n))
		checkOpenSet(t, tr)
	}
	for i := 0; i < 200; i++ {
		id := grid.BlockID((i * 3) % ids)
		if i%5 == 4 {
			put(tr, id, block(id, n))
		} else {
			getChecked(t, tr, id, n)
		}
		checkOpenSet(t, tr)
	}
	if c := tr.Counters(); c.Evictions == 0 || c.SpillHits == 0 {
		t.Fatalf("the sequence neither evicted nor hit: %+v", c)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				id := grid.BlockID((w*5 + i*3) % ids)
				if i%4 == 0 {
					tr.Put(id, block(id, n))
				} else {
					getChecked(t, tr, id, n)
				}
			}
		}(w)
	}
	wg.Wait()
	tr.Drain()
	checkOpenSet(t, tr)
	if c := tr.Counters(); c.DiskFaults != 0 || c.Quarantined != 0 {
		t.Errorf("churn counted %d disk faults and %d quarantines", c.DiskFaults, c.Quarantined)
	}
	tr.Close()
	if o, c := fsys.opens.Load(), fsys.closes.Load(); o != c {
		t.Errorf("after Close: %d opens, %d closes", o, c)
	}
	testutil.VerifyNoLeaks(t)
}

// TestClosedDescriptorIsARace: a read that finds its descriptor closed under
// it lost a race with the open set, not a fight with the disk. Get tries
// once more through a fresh descriptor; when that one is closed too, the Get
// is a miss that counts no disk fault, quarantines nothing and leaves the
// entry resident.
func TestClosedDescriptorIsARace(t *testing.T) {
	const n = 32
	fsys := &countingFS{}
	tr := openTier(t, t.TempDir(), 4, n, func(c *Config) { c.FS = fsys })
	put(tr, 5, block(5, n))
	if !getChecked(t, tr, 5, n) {
		t.Fatal("spilled block not served")
	}
	tr.mu.Lock()
	tr.fds[5].Close() // the held descriptor, shut under the next read
	tr.mu.Unlock()
	if !getChecked(t, tr, 5, n) {
		t.Fatal("a read that lost its descriptor was not retried")
	}
	fsys.stale.Store(true)
	if _, ok := tr.Get(5); ok {
		t.Fatal("served through two closed descriptors")
	}
	if c := tr.Counters(); c.DiskFaults != 0 || c.Quarantined != 0 || c.SpillMisses != 1 {
		t.Errorf("counters = %+v, want one miss, no fault, no quarantine", c)
	}
	if !tr.contains(5) || tr.BreakerState() != "closed" {
		t.Errorf("resident %v, breaker %s: the race dropped a sound entry", tr.contains(5), tr.BreakerState())
	}
	fsys.stale.Store(false)
	if !getChecked(t, tr, 5, n) {
		t.Error("the entry was not served once descriptors open again")
	}
}
