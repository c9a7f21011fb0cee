package tier

// Policy parity: a policy validated in the discrete-event simulator behaves
// identically in the production tiers, because every host admits and evicts
// through one cache.Level. These tests pin that type as seen through its
// hosts: the same access trace driven through a single simulated memhier
// level, through the production DRAM cache (store.MemCache), through the
// persistent spill tier and through trace.Replay produces the same
// per-access hit/miss sequence and the same eviction sequence, for the FIFO
// and LRU baselines, ARC and the paper's application-aware ImportanceLRU. A
// host that goes back to ordering its own victims, that touches, adds or
// removes at a different point of its read path, or that does not hand the
// incoming block to the victim call — ARC's choice depends on it — fails
// here.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/memhier"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/volume"
)

// trace is a block access pattern with re-references, designed so LRU and
// ImportanceLRU order victims differently (even ids score hot).
var parityTrace = []grid.BlockID{
	0, 1, 2, 3, 4, 1, 0, 5, 6, 2, 7, 0, 1, 8, 9, 4, 0, 10, 11, 3,
	2, 2, 5, 12, 0, 13, 6, 1, 14, 7, 0, 15, 8, 3, 9, 1,
}

// hotEven is the importance score shared by every stack under test.
func hotEven(id grid.BlockID) float64 {
	if id%2 == 0 {
		return 1
	}
	return 0
}

// run outcome: per-access hit flags plus the eviction order.
type outcome struct {
	hits   []bool
	evicts []grid.BlockID
}

func diffOutcome(t *testing.T, name string, got, want outcome) {
	t.Helper()
	if len(got.hits) != len(want.hits) {
		t.Fatalf("%s: %d accesses, want %d", name, len(got.hits), len(want.hits))
	}
	for i := range want.hits {
		if got.hits[i] != want.hits[i] {
			t.Errorf("%s: access %d (block %d) hit=%v, want %v",
				name, i, parityTrace[i], got.hits[i], want.hits[i])
		}
	}
	if len(got.evicts) != len(want.evicts) {
		t.Fatalf("%s: evictions %v, want %v", name, got.evicts, want.evicts)
	}
	for i := range want.evicts {
		if got.evicts[i] != want.evicts[i] {
			t.Fatalf("%s: evictions %v, want %v", name, got.evicts, want.evicts)
		}
	}
}

// runMemhier drives the trace through a single simulated level of capBlocks.
// Hits are the hierarchy's own answer; evictions are what its level tells
// the policy.
func runMemhier(t *testing.T, pol cache.Policy, capBlocks int64) outcome {
	t.Helper()
	const blockSize = 100
	var seen, out outcome
	h, err := memhier.New(memhier.Config{
		Levels: []memhier.LevelConfig{
			{Device: storage.DRAM(), Capacity: capBlocks * blockSize, Policy: recorded{pol, &seen}},
		},
		Backing: storage.HDD(),
	}, func(grid.BlockID) int64 { return blockSize })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range parityTrace {
		res := h.Get(id)
		out.hits = append(out.hits, res.FoundLevel == 0)
	}
	out.evicts = seen.evicts
	return out
}

// runMemCache drives the trace through the production DRAM cache over a
// real block file.
func runMemCache(t *testing.T, pol cache.Policy, capBlocks int64) outcome {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 32)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ball.bvol")
	if err := store.Write(path, ds, g, 0); err != nil {
		t.Fatal(err)
	}
	bf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	c, err := store.NewMemCache(bf, capBlocks*bf.BlockBytes(0), pol)
	if err != nil {
		t.Fatal(err)
	}
	var out outcome
	c.OnEvict(func(id grid.BlockID, vals []float32) {
		out.evicts = append(out.evicts, id)
	})
	ctx := context.Background()
	for _, id := range parityTrace {
		before := c.Counters().Hits
		if _, _, errs := c.GetBatch(ctx, []grid.BlockID{id}); errs[0] != nil {
			t.Fatal(errs[0])
		}
		out.hits = append(out.hits, c.Counters().Hits > before)
	}
	return out
}

// runTier drives the trace through the persistent spill tier: a Get miss
// followed by Put mirrors the fetch-then-install path of the other stacks.
// Hits are Get's answer; evictions are what the tier's level tells the
// policy.
func runTier(t *testing.T, pol cache.Policy, capBlocks int64) outcome {
	t.Helper()
	const n = 16
	var seen, out outcome
	tr, err := Open(Config{
		Dir:      t.TempDir(),
		Capacity: capBlocks * int64(spillHeaderSize+4*n),
		Policy:   recorded{pol, &seen},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, id := range parityTrace {
		_, ok := tr.Get(id)
		out.hits = append(out.hits, ok)
		if !ok {
			put(tr, id, block(id, n))
		}
	}
	out.evicts = seen.evicts
	return out
}

// recorded is a policy that writes down what its level tells it: a Touch is
// a hit, an Insert a miss that was admitted, a Remove an eviction; Victim,
// the incoming block with it, passes through. trace.Replay reports totals
// only; this recovers the sequences. Every host's cache.Level calls Remove
// on eviction, so it is also how the memhier and tier runs see theirs.
type recorded struct {
	cache.Policy
	out *outcome
}

func (r recorded) Touch(id grid.BlockID) {
	r.out.hits = append(r.out.hits, true)
	r.Policy.Touch(id)
}

func (r recorded) Insert(id grid.BlockID) {
	r.out.hits = append(r.out.hits, false)
	r.Policy.Insert(id)
}

func (r recorded) Remove(id grid.BlockID) {
	r.out.evicts = append(r.out.evicts, id)
	r.Policy.Remove(id)
}

// runReplay drives the trace through trace.Replay's unit-block cache.
func runReplay(t *testing.T, pol cache.Policy, capBlocks int) outcome {
	t.Helper()
	var out outcome
	tr := &trace.Trace{Requests: [][]grid.BlockID{parityTrace}}
	res := trace.Replay(tr, recorded{pol, &out}, capBlocks)
	if res.Hits+res.Misses != len(parityTrace) || res.Hits+res.Misses != len(out.hits) {
		t.Fatalf("replay counted %d hits + %d misses over %d accesses, policy saw %d",
			res.Hits, res.Misses, len(parityTrace), len(out.hits))
	}
	return out
}

func TestPolicyParityAcrossTiers(t *testing.T) {
	const capBlocks = 4
	cases := []struct {
		name    string
		factory func() cache.Policy
	}{
		{"LRU", func() cache.Policy { return cache.NewLRU() }},
		{"FIFO", func() cache.Policy { return cache.NewFIFO() }},
		{"ARC", func() cache.Policy { return cache.NewARC() }},
		{"ImportanceLRU", func() cache.Policy {
			return policy.NewImportanceLRU(hotEven, 0.5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := runMemhier(t, tc.factory(), capBlocks)
			mem := runMemCache(t, tc.factory(), capBlocks)
			ssd := runTier(t, tc.factory(), capBlocks)
			if len(sim.evicts) == 0 {
				t.Fatal("trace produced no evictions; parity vacuous")
			}
			diffOutcome(t, "MemCache vs simulator", mem, sim)
			diffOutcome(t, "Tier vs simulator", ssd, sim)
			diffOutcome(t, "trace.Replay vs simulator", runReplay(t, tc.factory(), capBlocks), sim)
		})
	}
}

// TestPolicyParityDiverges sanity-checks the harness itself: LRU and
// ImportanceLRU must NOT produce the same eviction sequence on this trace,
// or the parity assertions above would pass trivially.
func TestPolicyParityDiverges(t *testing.T) {
	const capBlocks = 4
	lru := runMemhier(t, cache.NewLRU(), capBlocks)
	imp := runMemhier(t, policy.NewImportanceLRU(hotEven, 0.5), capBlocks)
	same := len(lru.evicts) == len(imp.evicts)
	if same {
		for i := range lru.evicts {
			if lru.evicts[i] != imp.evicts[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("LRU and ImportanceLRU evict identically; trace too weak")
	}
}
