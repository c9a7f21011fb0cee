package tier

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/cache"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// block fabricates a distinctive payload for a block id.
func block(id grid.BlockID, n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(id)*1000 + float32(i)
	}
	return vals
}

// openTier opens a tier over dir with room for roughly blocks payloads of
// n floats each.
func openTier(t *testing.T, dir string, blocks, n int, mut func(*Config)) *Tier {
	t.Helper()
	cfg := Config{
		Dir:      dir,
		Capacity: int64(blocks) * int64(spillHeaderSize+4*n),
	}
	if mut != nil {
		mut(&cfg)
	}
	tr, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// withBreaker gives tr a disk breaker that trips after threshold faults and
// backs off from base to max, so a test reaches a trip and a heal in
// milliseconds. Call it before the tier's first Put or Get.
func withBreaker(tr *Tier, threshold int, base, max time.Duration) {
	tr.br = breaker.New(threshold, base, max)
}

// put spills one block and waits for the worker to have processed it, so a
// test sees each Put's effect — file, index, faults, breaker — before its
// next step: one worker draining a FIFO is deterministic.
func put(tr *Tier, id grid.BlockID, vals []float32) {
	tr.Put(id, vals)
	tr.Drain()
}

func TestSpillRoundTrip(t *testing.T) {
	tr := openTier(t, t.TempDir(), 4, 64, nil)
	want := block(7, 64)
	put(tr, 7, want)
	got, ok := tr.Get(7)
	if !ok {
		t.Fatal("spilled block not served")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, ok := tr.Get(8); ok {
		t.Fatal("unspilled block served")
	}
	c := tr.Counters()
	if c.SpillWrites != 1 || c.SpillHits != 1 || c.SpillMisses != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Blocks != 1 || c.OccupancyBytes != int64(spillHeaderSize+4*64) {
		t.Fatalf("occupancy = %d blocks / %d bytes", c.Blocks, c.OccupancyBytes)
	}
}

func TestAsyncSpillAndDrain(t *testing.T) {
	tr := openTier(t, t.TempDir(), 8, 32, nil)
	for id := grid.BlockID(0); id < 5; id++ {
		tr.Put(id, block(id, 32))
	}
	tr.Drain()
	for id := grid.BlockID(0); id < 5; id++ {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("block %d not served after Drain", id)
		}
	}
	testutil.VerifyNoLeaks(t)
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	tr := openTier(t, dir, 4, 16, nil)
	put(tr, 3, block(3, 16))
	put(tr, 9, block(9, 16))
	tr.Close()

	tr2 := openTier(t, dir, 4, 16, nil)
	for _, id := range []grid.BlockID{3, 9} {
		got, ok := tr2.Get(id)
		if !ok {
			t.Fatalf("block %d lost across reopen", id)
		}
		want := block(id, 16)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %d value %d = %v, want %v", id, i, got[i], want[i])
			}
		}
	}
	if n := tr2.Len(); n != 2 {
		t.Fatalf("Len after reopen = %d", n)
	}
}

// TestRescanQuarantinesDamage is the crash-artifact matrix: a torn
// (truncated) file, a bit-rotted file, a stray temp, and a foreign file.
// Rescan must recover the intact entries, quarantine the damaged two,
// reclaim the temp, and leave the foreign file alone.
func TestRescanQuarantinesDamage(t *testing.T) {
	dir := t.TempDir()
	tr := openTier(t, dir, 8, 32, nil)
	for id := grid.BlockID(0); id < 4; id++ {
		put(tr, id, block(id, 32))
	}
	tr.Close()

	// Tear block 1: keep only the first 10 bytes, as a crash mid-write
	// (or a lying short write) would.
	torn := filepath.Join(dir, spillName(1))
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	// Rot block 2: flip one payload bit.
	rotted := filepath.Join(dir, spillName(2))
	raw, err = os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	raw[spillHeaderSize+5] ^= 0x10
	if err := os.WriteFile(rotted, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray temp from a crash between staging and rename.
	if err := os.WriteFile(filepath.Join(dir, "spill-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A foreign file the tier must not touch.
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}

	tr2 := openTier(t, dir, 8, 32, nil)
	for _, id := range []grid.BlockID{0, 3} {
		if _, ok := tr2.Get(id); !ok {
			t.Errorf("intact block %d not recovered", id)
		}
	}
	for _, id := range []grid.BlockID{1, 2} {
		if _, ok := tr2.Get(id); ok {
			t.Errorf("damaged block %d served", id)
		}
	}
	c := tr2.Counters()
	if c.Quarantined != 2 {
		t.Errorf("quarantined = %d, want 2", c.Quarantined)
	}
	if c.TmpReclaimed != 1 {
		t.Errorf("tmp reclaimed = %d, want 1", c.TmpReclaimed)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("foreign file disturbed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "spill-123.tmp")); !os.IsNotExist(err) {
		t.Errorf("stray temp survived rescan: %v", err)
	}
	// The damaged files moved to quarantine for post-mortem.
	for _, id := range []grid.BlockID{1, 2} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, spillName(id))); err != nil {
			t.Errorf("block %d missing from quarantine: %v", id, err)
		}
	}
}

// TestRescanIgnoresNonCanonicalNames: intact spill images under names that
// parse to a block id but are not the name spillName writes — a leading
// zero, a sign — are foreign files. Indexed, they could never be read,
// evicted or quarantined under their own name: every Get would count a disk
// fault, and the files would sit outside the budget for good.
func TestRescanIgnoresNonCanonicalNames(t *testing.T) {
	dir := t.TempDir()
	names := map[string]grid.BlockID{
		"b05.sp": 5, "b+6.sp": 6, "b007.sp": 7, "b-0.sp": 0, "b+09.sp": 9,
	}
	for name, id := range names {
		if err := os.WriteFile(filepath.Join(dir, name), encodeSpill(id, block(id, 16)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr := openTier(t, dir, 8, 16, nil)
	if n := tr.Len(); n != 0 {
		t.Fatalf("rescan indexed %d blocks from non-canonical names", n)
	}
	for _, id := range names {
		if _, ok := tr.Get(id); ok {
			t.Errorf("block %d served from a non-canonical name", id)
		}
	}
	if c := tr.Counters(); c.DiskFaults != 0 || c.Quarantined != 0 {
		t.Errorf("counters = %+v, want no fault and no quarantine", c)
	}
	if st := tr.BreakerState(); st != "closed" {
		t.Errorf("breaker = %s, want closed", st)
	}
	for name := range names {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign file %s disturbed: %v", name, err)
		}
	}
}

func TestEvictionRespectsCapacityAndPolicy(t *testing.T) {
	var seen outcome
	tr := openTier(t, t.TempDir(), 2, 16, func(c *Config) {
		c.Policy = recorded{cache.NewLRU(), &seen}
	})
	for id := grid.BlockID(0); id < 5; id++ {
		put(tr, id, block(id, 16))
	}
	// LRU: 0, 1, 2 evicted in order; 3, 4 resident.
	evicted, want := seen.evicts, []grid.BlockID{0, 1, 2}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("evicted %v, want %v", evicted, want)
		}
	}
	if tr.Len() != 2 || tr.Used() > tr.lvl.Capacity {
		t.Fatalf("Len=%d Used=%d cap=%d", tr.Len(), tr.Used(), tr.lvl.Capacity)
	}
	for _, id := range want {
		if _, err := os.Stat(filepath.Join(tr.dir, spillName(id))); !os.IsNotExist(err) {
			t.Errorf("evicted block %d still on disk: %v", id, err)
		}
	}
	if c := tr.Counters(); c.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", c.Evictions)
	}
}

func TestOversizedBlockDropped(t *testing.T) {
	tr := openTier(t, t.TempDir(), 1, 8, nil)
	put(tr, 1, block(1, 8))
	put(tr, 2, block(2, 4096)) // larger than the whole tier
	if _, ok := tr.Get(2); ok {
		t.Fatal("oversized block spilled")
	}
	if _, ok := tr.Get(1); !ok {
		t.Fatal("resident block sacrificed for an unspillable one")
	}
	if c := tr.Counters(); c.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", c.Dropped)
	}
}

// TestBreakerTripsOnWriteFaults drives consecutive injected write failures
// through a synchronous tier: the breaker must trip at the threshold,
// subsequent operations must be bypassed (not errors), and a heal plus
// backoff expiry must let a probe close it again.
func TestBreakerTripsOnWriteFaults(t *testing.T) {
	ffs := faultio.NewFaultFS(nil, faultio.FileFaultConfig{Seed: 11, WriteFailRate: 1})
	tr := openTier(t, t.TempDir(), 8, 16, func(c *Config) { c.FS = ffs })
	withBreaker(tr, 3, 10*time.Millisecond, breakerMax)
	for id := grid.BlockID(0); id < 3; id++ {
		put(tr, id, block(id, 16))
	}
	if st := tr.BreakerState(); st != "open" {
		t.Fatalf("breaker = %s after 3 faults, want open", st)
	}
	c := tr.Counters()
	if c.DiskFaults != 3 || c.BreakerOpens != 1 || c.SpillWrites != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// While open, writes and reads are bypassed without touching the disk.
	put(tr, 9, block(9, 16))
	if c := tr.Counters(); c.WriteBypassed == 0 {
		t.Fatalf("counters = %+v, want write bypassed", c)
	}
	// Heal the disk; once the backoff window expires a probe closes it.
	ffs.SetConfig(faultio.FileFaultConfig{Seed: 11})
	time.Sleep(15 * time.Millisecond)
	put(tr, 10, block(10, 16))
	if st := tr.BreakerState(); st != "closed" {
		t.Fatalf("breaker = %s after heal+probe, want closed", st)
	}
	if _, ok := tr.Get(10); !ok {
		t.Fatal("post-recovery spill not served")
	}
	if c := tr.Counters(); c.BreakerRecov != 1 {
		t.Fatalf("recoveries = %d, want 1", c.BreakerRecov)
	}
}

func TestENOSPCTripsBreaker(t *testing.T) {
	// Budget of 1 byte: the first spill lands (the budget is checked before
	// each write), every later one hits the full-disk model.
	ffs := faultio.NewFaultFS(nil, faultio.FileFaultConfig{Seed: 1, ENOSPCAfterBytes: 1})
	tr := openTier(t, t.TempDir(), 8, 16, func(c *Config) { c.FS = ffs })
	withBreaker(tr, 2, breakerBase, breakerMax)
	put(tr, 1, block(1, 16))
	put(tr, 2, block(2, 16))
	put(tr, 3, block(3, 16))
	if st := tr.BreakerState(); st != "open" {
		t.Fatalf("breaker = %s on full disk, want open", st)
	}
	if c := tr.Counters(); c.DiskFaults != 2 || c.SpillWrites != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestRuntimeCorruptionQuarantines rots a resident entry while the tier is
// live: the next Get must miss (never serve bad voxels), quarantine the
// file, and drop the index entry so later Gets miss cheaply.
func TestRuntimeCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	tr := openTier(t, dir, 4, 32, nil)
	put(tr, 5, block(5, 32))
	path := filepath.Join(dir, spillName(5))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[spillHeaderSize] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("corrupt block served")
	}
	c := tr.Counters()
	if c.DiskFaults != 1 || c.Quarantined != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if tr.contains(5) {
		t.Fatal("corrupt entry still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, spillName(5))); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
}

// TestDamagedSpillHandsTheBufferBack: whatever is wrong with a resident
// file — the payload cut short, the header torn, another block's id in it, a
// voxel count that is not the file's, a rotten payload — Get misses, counts
// one disk fault, quarantines the file and drops the entry, and the block
// buffer it may have taken to read into is back in the pool.
func TestDamagedSpillHandsTheBufferBack(t *testing.T) {
	const n = 32
	for name, damage := range map[string]func(raw []byte) []byte{
		"truncated payload": func(raw []byte) []byte { return raw[:spillHeaderSize+2*n] },
		"torn header":       func(raw []byte) []byte { return raw[:spillHeaderSize/2] },
		"id mismatch":       func(raw []byte) []byte { raw[8]++; return raw },
		"count mismatch":    func(raw []byte) []byte { raw[12]--; return raw },
		"rotten payload":    func(raw []byte) []byte { raw[len(raw)-1] ^= 0x40; return raw },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tr := openTier(t, dir, 4, n, nil)
			put(tr, 5, block(5, n))
			path := filepath.Join(dir, spillName(5))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			recycled := make([]float32, n)
			tr.bufs.Put(recycled)
			if _, ok := tr.Get(5); ok {
				t.Fatal("damaged block served")
			}
			if c := tr.Counters(); c.DiskFaults != 1 || c.Quarantined != 1 || c.SpillHits != 0 {
				t.Errorf("counters = %+v, want one fault, one quarantine", c)
			}
			if tr.contains(5) {
				t.Error("damaged entry still indexed")
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, spillName(5))); err != nil {
				t.Errorf("damaged file not quarantined: %v", err)
			}
			if buf, pooled := tr.bufs.Get(n); !pooled || &buf[0] != &recycled[0] {
				t.Error("the block buffer did not come back to the pool")
			}
		})
	}
}

func TestShortWriteCaughtOnRead(t *testing.T) {
	ffs := faultio.NewFaultFS(nil, faultio.FileFaultConfig{Seed: 6, ShortWriteRate: 1})
	tr := openTier(t, t.TempDir(), 4, 64, func(c *Config) { c.FS = ffs })
	put(tr, 1, block(1, 64)) // lies: reports success, persists half
	if c := tr.Counters(); c.SpillWrites != 1 {
		t.Fatalf("short write must look successful at spill time: %+v", c)
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("torn spill served")
	}
	if c := tr.Counters(); c.Quarantined != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestInstrumentRegistersTierMetrics(t *testing.T) {
	tr := openTier(t, t.TempDir(), 4, 16, nil)
	put(tr, 1, block(1, 16))
	tr.Get(1)
	reg := obs.NewRegistry()
	tr.Instrument(reg)
	snap := reg.Snapshot()
	if snap.Counters["tier.spill_writes"] != 1 || snap.Counters["tier.spill_hits"] != 1 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Gauges["tier.blocks"] != 1 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if snap.Gauges["tier.breaker_state"] != 0 {
		t.Fatalf("breaker_state gauge = %d", snap.Gauges["tier.breaker_state"])
	}
	for _, name := range []string{
		"tier.spill_misses", "tier.disk_faults", "tier.quarantined",
		"tier.evictions", "tier.occupancy_bytes",
	} {
		_, counter := snap.Counters[name]
		_, gauge := snap.Gauges[name]
		if !counter && !gauge {
			t.Errorf("metric %s not registered", name)
		}
	}
}

// TestConcurrentAccess churns Get/Put from many goroutines under the race
// detector: no panics, no lost index/occupancy consistency, and no read that
// loses its file or descriptor to an eviction counts as a disk fault.
func TestConcurrentAccess(t *testing.T) {
	tr := openTier(t, t.TempDir(), 16, 32, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := grid.BlockID((w*31 + i) % 40)
				if i%3 == 0 {
					tr.Put(id, block(id, 32))
				} else if vals, ok := tr.Get(id); ok {
					// Check, then recycle as the DRAM cache's eviction would:
					// concurrent hits must never share a pooled buffer.
					if want := block(id, 32); vals[0] != want[0] || vals[31] != want[31] {
						t.Errorf("block %d: got [%v..%v], want [%v..%v]", id, vals[0], vals[31], want[0], want[31])
					}
					tr.bufs.Put(vals)
				}
			}
		}(w)
	}
	wg.Wait()
	tr.Drain()
	if used, n := tr.Used(), tr.Len(); used > tr.lvl.Capacity || n > 16 {
		t.Fatalf("over budget: %d bytes, %d blocks", used, n)
	}
	if c := tr.Counters(); c.DiskFaults != 0 || c.Quarantined != 0 {
		t.Fatalf("churn counted %d disk faults and %d quarantines", c.DiskFaults, c.Quarantined)
	}
	tr.Close()
	testutil.VerifyNoLeaks(t)
}

func TestCloseIsIdempotentAndStopsPuts(t *testing.T) {
	tr := openTier(t, t.TempDir(), 4, 16, nil)
	tr.Put(1, block(1, 16))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Put(2, block(2, 16)) // must not panic on the closed queue
	tr.Drain()              // must not hang after Close
	testutil.VerifyNoLeaks(t)
}

// TestDrainCloseRace: Puts and Drains racing Close must neither send on the
// closed queue nor hang, and Close must leave no worker behind.
func TestDrainCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr, err := Open(Config{Dir: t.TempDir(), Capacity: 8 * (spillHeaderSize + 4*16)})
		if err != nil {
			t.Fatal(err)
		}
		var started, done sync.WaitGroup
		for w := 0; w < 4; w++ {
			started.Add(1)
			done.Add(1)
			go func(w int) {
				defer done.Done()
				for i := 0; i < 64; i++ {
					id := grid.BlockID(w*64 + i)
					tr.Put(id, block(id, 16))
					if i == 0 {
						started.Done()
					}
					if i%8 == 7 {
						tr.Drain()
					}
				}
			}(w)
		}
		started.Wait()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		done.Wait()
	}
	testutil.VerifyNoLeaks(t)
}

func TestReopenWithSmallerBudgetSheds(t *testing.T) {
	dir := t.TempDir()
	tr := openTier(t, dir, 4, 16, nil)
	for id := grid.BlockID(0); id < 4; id++ {
		put(tr, id, block(id, 16))
	}
	tr.Close()
	tr2 := openTier(t, dir, 2, 16, nil)
	if tr2.Len() != 2 || tr2.Used() > tr2.lvl.Capacity {
		t.Fatalf("Len=%d Used=%d after shrink", tr2.Len(), tr2.Used())
	}
}

// recycleSink is an inner reader that only records what is recycled to it.
type recycleSink struct{ got [][]float32 }

func (s *recycleSink) ReadBlock(grid.BlockID) ([]float32, error) { return nil, os.ErrNotExist }
func (s *recycleSink) RecycleBlockBuf(v []float32)               { s.got = append(s.got, v) }
func (s *recycleSink) ReadBlocks(ctx context.Context, ids []grid.BlockID) ([][]float32, []error) {
	return testutil.ReadEach(ctx, ids, s.ReadBlock)
}

// A spill hit is read into the buffer the DRAM cache recycled instead of
// allocating, the header scratch and the file's descriptor are reused too,
// and once the tier's pool is full the overflow still reaches the inner
// reader.
func TestGetReusesRecycledBuffers(t *testing.T) {
	tr := openTier(t, t.TempDir(), 4, 64, nil)
	put(tr, 1, block(1, 64))
	put(tr, 2, block(2, 64))
	sink := &recycleSink{}
	r := NewReader(sink, tr)

	first, err := r.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	r.RecycleBlockBuf(first)
	second, err := r.ReadBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if &second[0] != &first[0] {
		t.Fatal("spill hit did not decode into the recycled buffer")
	}
	for i, want := range block(2, 64) {
		if second[i] != want {
			t.Fatalf("value %d = %v, want %v: stale contents in a reused buffer", i, second[i], want)
		}
	}
	r.RecycleBlockBuf(second)
	if allocs := testing.AllocsPerRun(20, func() {
		v, ok := tr.Get(1)
		if !ok {
			t.Fatal("spilled block not served")
		}
		r.RecycleBlockBuf(v)
	}); allocs > 0 { // the file stays open: no path, no descriptor, no buffer, no header
		t.Fatalf("%v allocations per warm Get", allocs)
	}

	for i := 0; len(sink.got) == 0 && i < 1000; i++ {
		r.RecycleBlockBuf(make([]float32, 64))
	}
	if len(sink.got) != 1 {
		t.Fatal("a full tier pool never overflowed to the inner reader")
	}
}

// isBlock reports whether vals is block(id, n), without building it.
func isBlock(vals []float32, id grid.BlockID, n int) bool {
	for i, v := range vals {
		if v != float32(id)*1000+float32(i) {
			return false
		}
	}
	return len(vals) == n
}

// fillReader is a spill tier's inner reader that answers every block with
// block(id, n).
type fillReader struct{ n int }

func (f fillReader) ReadBlock(id grid.BlockID) ([]float32, error) { return block(id, f.n), nil }
func (fillReader) RecycleBlockBuf([]float32)                      {}
func (f fillReader) ReadBlocks(_ context.Context, ids []grid.BlockID) ([][]float32, []error) {
	vals := make([][]float32, len(ids))
	for i, id := range ids {
		vals[i] = block(id, f.n)
	}
	return vals, make([]error, len(ids))
}

// TestReaderBatchReuse runs overlapping Reader batches — all hits, all
// misses, and both — from several goroutines, so batch states are reused
// while other batches read beside them. Every block delivered must be its
// own; afterwards every spent state is back on a bounded free list holding
// none of its callers' slices; and a batch of hits allocates only the two
// results it returns.
func TestReaderBatchReuse(t *testing.T) {
	const n = 16
	tr := openTier(t, t.TempDir(), 8, n, nil)
	for id := grid.BlockID(0); id < 8; id++ {
		put(tr, id, block(id, n))
	}
	r := NewReader(fillReader{n}, tr) // blocks 8..15 are the inner reader's
	ctx := context.Background()
	read := func(ids []grid.BlockID) {
		vals, errs := r.ReadBlocks(ctx, ids)
		for i, id := range ids {
			if errs[i] != nil || !isBlock(vals[i], id, n) {
				t.Errorf("block %d: %v, err %v", id, vals[i], errs[i])
				return
			}
		}
		for _, v := range vals {
			r.RecycleBlockBuf(v)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 100; it++ {
				ids := make([]grid.BlockID, 1+rng.Intn(8))
				for i := range ids {
					ids[i] = grid.BlockID(rng.Intn(16))
				}
				read(ids)
			}
		}(int64(w))
	}
	wg.Wait()
	r.mu.Lock()
	if len(r.free) == 0 || len(r.free) > maxFreeBatches {
		t.Errorf("%d batch states on the free list, want 1..%d", len(r.free), maxFreeBatches)
	}
	for _, b := range r.free {
		if b.ids != nil || b.vals != nil {
			t.Errorf("a spent batch state kept its caller's slices: ids %v, vals %v", b.ids, b.vals)
		}
	}
	r.mu.Unlock()

	hits := []grid.BlockID{0, 1, 2, 3, 4, 5, 6, 7}
	read(hits)
	if allocs := testing.AllocsPerRun(50, func() { read(hits) }); allocs != 2 {
		t.Errorf("a batch of spill hits allocates %v times, want 2 (its vals and errs)", allocs)
	}
}
