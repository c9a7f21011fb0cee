package cache_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/camera"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/vec"
	"repro/internal/volume"
)

// replay drives reqs through a Level of c unit-sized blocks under p — the
// split of duties every host uses: the level decides when to evict, the
// policy which block — and records per request whether it hit, plus every
// block the level evicted in order.
func replay(p cache.Policy, reqs []grid.BlockID, c int) (hits []bool, victims []grid.BlockID) {
	l := cache.NewLevel(int64(c), p)
	l.OnEvict = func(id grid.BlockID, _ cache.Entry) { victims = append(victims, id) }
	sa, _ := p.(cache.StepAware)
	for i, x := range reqs {
		if sa != nil {
			sa.SetStep(i)
		}
		hit := l.Touch(x)
		hits = append(hits, hit)
		if !hit {
			l.Admit(x, cache.Entry{Size: 1})
		}
	}
	return hits, victims
}

func misses(hits []bool) int {
	n := 0
	for _, h := range hits {
		if !h {
			n++
		}
	}
	return n
}

// equalsReference replays reqs at capacity c under each policy and its
// textbook version: FIFO, LRU and ARC must hit and evict exactly as their
// references do, Belady must miss as often as OPT. The error names the first
// difference.
func equalsReference(reqs []grid.BlockID, c int) error {
	for _, tc := range []struct {
		p   cache.Policy
		ref func([]grid.BlockID, int) ([]bool, []grid.BlockID)
	}{
		{cache.NewFIFO(), refFIFO},
		{cache.NewLRU(), refLRU},
		{cache.NewARC(), refARC},
		{cache.NewBelady(reqs), refOPT},
	} {
		hits, victims := replay(tc.p, reqs, c)
		wantHits, wantVictims := tc.ref(reqs, c)
		if _, ok := tc.p.(*cache.Belady); ok {
			if got, want := misses(hits), misses(wantHits); got != want {
				return fmt.Errorf("Belady misses %d, OPT %d", got, want)
			}
			continue
		}
		if i := firstDiff(hits, wantHits); i >= 0 {
			return fmt.Errorf("%s: request %d (block %d) hit %v, reference %v",
				tc.p.Name(), i, reqs[i], hits[i], wantHits[i])
		}
		if i := firstDiff(victims, wantVictims); i >= 0 {
			return fmt.Errorf("%s: eviction %d differs: %v…, reference %v…",
				tc.p.Name(), i, victims[i:min(i+3, len(victims))], wantVictims[i:min(i+3, len(wantVictims))])
		}
	}
	return nil
}

// firstDiff returns the first index at which a and b differ, -1 if equal.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// randomTrace mixes zipf-popular blocks with a cyclic scan over others, so
// both recency and frequency matter and ARC's ghosts are hit in both lists.
func randomTrace(seed int64, c int) []grid.BlockID {
	r := rand.New(rand.NewSource(seed))
	hot := uint64(4*c + 8)
	z := rand.NewZipf(r, 1.3, 2, hot-1)
	reqs := make([]grid.BlockID, max(4000, 40*c))
	scan := 0
	for i := range reqs {
		if r.Intn(10) < 6 {
			reqs[i] = grid.BlockID(z.Uint64())
		} else {
			scan = (scan + 1) % (2*c + 3)
			reqs[i] = grid.BlockID(int(hot) + scan)
		}
	}
	return reqs
}

var capacities = []int{1, 2, 3, 4, 16, 64, 256}

func TestPoliciesEqualReferencesOnRandomTraces(t *testing.T) {
	for _, c := range capacities {
		for seed := int64(1); seed <= 20; seed++ {
			if err := equalsReference(randomTrace(seed, c), c); err != nil {
				t.Errorf("c %d, seed %d: %v", c, seed, err)
			}
		}
	}
}

// TestPoliciesEqualReferencesOnAblationStream replays the DRAM-level request
// stream experiments.AblationPolicies records (3d_ball, 2048 blocks, random
// 10–15°), at the scale the experiments tests run it and at its DRAM
// capacity in blocks.
func TestPoliciesEqualReferencesOnAblationStream(t *testing.T) {
	o := experiments.Options{Scale: 0.0625, Steps: 30}.WithDefaults()
	ds := volume.Ball().Scale(o.Scale)
	g, err := ds.GridWithBlockCount(2048)
	if err != nil {
		t.Fatal(err)
	}
	d := o.CameraDistance
	cfg := sim.Config{
		Dataset: ds, Grid: g,
		Path:       camera.Random(d*0.93, d*1.07, 10, 15, o.Steps, o.Seed),
		ViewAngle:  vec.Radians(o.ViewAngleDeg),
		CacheRatio: o.CacheRatio,
	}
	m, err := sim.RunBaseline(cfg, func() cache.Policy { return cache.NewLRU() }, "LRU")
	if err != nil {
		t.Fatal(err)
	}
	reqs := m.Trace.Flatten()
	dram := float64(ds.TotalBytes()) * o.CacheRatio * o.CacheRatio
	c := int(dram / float64(g.Bytes(0, ds.ValueSize, ds.Variables)))
	if _, victims := refLRU(reqs, c); len(victims) == 0 {
		t.Fatalf("%d requests at %d blocks evict nothing", len(reqs), c)
	}
	if err := equalsReference(reqs, c); err != nil {
		t.Error(err)
	}
}

// FuzzPolicyEqualsReference: any request stream, any capacity up to 16.
func FuzzPolicyEqualsReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 0, 1, 4, 5, 2, 0, 1}, uint8(2))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}, uint8(3))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 0, 0, 5, 6, 7}, 8), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, cb uint8) {
		c := int(cb%16) + 1
		reqs := make([]grid.BlockID, len(data))
		for i, b := range data {
			reqs[i] = grid.BlockID(int(b) % (3*c + 4))
		}
		if err := equalsReference(reqs, c); err != nil {
			t.Fatalf("c %d: %v", c, err)
		}
	})
}
