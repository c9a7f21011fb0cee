package entropy

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/volume"
)

func TestShannonKnownValues(t *testing.T) {
	cases := []struct {
		counts []int64
		want   float64
	}{
		{nil, 0},
		{[]int64{0, 0, 0}, 0},
		{[]int64{10}, 0},                     // single outcome: no uncertainty
		{[]int64{5, 5}, 1},                   // fair coin: 1 bit
		{[]int64{1, 1, 1, 1}, 2},             // uniform over 4: 2 bits
		{[]int64{1, 1, 1, 1, 0, 0, 0, 0}, 2}, // zeros don't contribute
	}
	for _, c := range cases {
		if got := Shannon(c.counts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Shannon(%v) = %g, want %g", c.counts, got, c.want)
		}
	}
}

func TestShannonBounds(t *testing.T) {
	// Entropy of n bins is at most log2(n), achieved by the uniform
	// distribution.
	counts := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	h := Shannon(counts)
	if h < 0 || h > 3 {
		t.Errorf("entropy %g outside [0, 3]", h)
	}
}

func TestHistogramAdd(t *testing.T) {
	h := NewHistogram(4, 0, 1)
	h.add(0.1) // bin 0
	h.add(0.3) // bin 1
	h.add(0.6) // bin 2
	h.add(0.9) // bin 3
	h.add(-5)  // clamped to bin 0
	h.add(5)   // clamped to bin 3
	h.add(1.0) // exactly max: clamped to last bin
	want := []int64{2, 1, 1, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.total() != 7 {
		t.Errorf("Total = %d", h.total())
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 0, 1) },
		func() { NewHistogram(4, 1, 1) },
		func() { NewHistogram(4, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramAddAll(t *testing.T) {
	h := NewHistogram(2, 0, 1)
	h.AddAll([]float32{0.1, 0.2, 0.8})
	if h.Counts[0] != 2 || h.Counts[1] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestBlockEntropyConstantIsZero(t *testing.T) {
	vals := make([]float32, 100)
	for i := range vals {
		vals[i] = 3.5
	}
	if got := BlockEntropy(vals, 64); got != 0 {
		t.Errorf("constant block entropy = %g, want 0", got)
	}
	if got := BlockEntropy(nil, 64); got != 0 {
		t.Errorf("empty block entropy = %g, want 0", got)
	}
}

func TestBlockEntropyVariedBeatsUniform(t *testing.T) {
	// A block with rich variation must out-score a nearly constant block.
	rng := field.NewRand(1)
	varied := make([]float32, 512)
	for i := range varied {
		varied[i] = float32(rng.Float64())
	}
	nearlyConst := make([]float32, 512)
	for i := range nearlyConst {
		nearlyConst[i] = 0.5
	}
	nearlyConst[0] = 0.50001
	hv := BlockEntropy(varied, 64)
	hc := BlockEntropy(nearlyConst, 64)
	if hv <= hc {
		t.Errorf("varied %g <= nearly-constant %g", hv, hc)
	}
}

func buildBallTable(t *testing.T) (*volume.Dataset, *grid.Grid, *Table) {
	t.Helper()
	// 64³ in 8³ blocks: far-corner blocks lie entirely outside the ball
	// (nearest corner-block point is at radius 0.65 > ball radius 0.5).
	ds := volume.Ball().Scale(1.0 / 16)
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ds, g, Build(ds, g, Options{})
}

func TestBuildBallImportanceStructure(t *testing.T) {
	_, g, tab := buildBallTable(t)
	if tab.Len() != g.NumBlocks() {
		t.Fatalf("table len %d != %d blocks", tab.Len(), g.NumBlocks())
	}
	// The far-corner block is entirely ambient (constant 0) → entropy 0;
	// blocks containing the ball surface carry information.
	per := g.BlocksPerAxis()
	corner := g.ID(0, 0, 0)
	mid := g.ID(per.X/2, per.Y/2, per.Z/2)
	if s := tab.Score(corner); s != 0 {
		t.Errorf("corner block entropy = %g, want 0", s)
	}
	if s := tab.Score(mid); s <= 0 {
		t.Errorf("center block entropy = %g, want > 0", s)
	}
	if tab.MaxScore() <= 0 {
		t.Errorf("max entropy = %g", tab.MaxScore())
	}
}

func TestRankedIsSortedDescending(t *testing.T) {
	_, _, tab := buildBallTable(t)
	r := tab.TopN(tab.Len())
	for i := 1; i < len(r); i++ {
		if tab.Score(r[i]) > tab.Score(r[i-1]) {
			t.Fatalf("ranked not descending at %d: %g > %g", i, tab.Score(r[i]), tab.Score(r[i-1]))
		}
	}
}

func TestTopN(t *testing.T) {
	tab := NewTable([]float64{0.5, 2.0, 1.0, 0.1})
	top := tab.TopN(2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Errorf("TopN(2) = %v, want [1 2]", top)
	}
	if got := tab.TopN(100); len(got) != 4 {
		t.Errorf("TopN over-length = %d", len(got))
	}
	if got := tab.TopN(-3); len(got) != 0 {
		t.Errorf("TopN negative = %d", len(got))
	}
}

func TestThresholdForQuantile(t *testing.T) {
	tab := NewTable([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// Top 30% of 10 blocks = 3 blocks: scores 10, 9, 8 → σ = 8 (score at
	// rank 3, 0-indexed).
	sigma := tab.ThresholdForQuantile(0.3)
	above := tab.Above(sigma)
	if len(above) != 3 {
		t.Errorf("Above(σ=%g) = %v, want 3 blocks", sigma, above)
	}
	if !math.IsInf(tab.ThresholdForQuantile(0), 1) {
		t.Error("q=0 should be +Inf")
	}
	if !math.IsInf(tab.ThresholdForQuantile(1), -1) {
		t.Error("q=1 should be -Inf")
	}
	if !math.IsInf(NewTable(nil).ThresholdForQuantile(0.5), 1) {
		t.Error("empty table should be +Inf")
	}
}

func TestAbove(t *testing.T) {
	tab := NewTable([]float64{0.1, 0.9, 0.5, 0.7})
	above := tab.Above(0.4)
	if len(above) != 3 {
		t.Errorf("Above(0.4) = %v", above)
	}
}

func TestBuildDeterministic(t *testing.T) {
	// Parallel Build must be deterministic: same dataset, same scores.
	ds := volume.LiftedMixFrac().Scale(0.05)
	g, err := ds.GridWithBlockCount(24)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	a := Build(ds, g, Options{})
	runtime.GOMAXPROCS(1)
	b := Build(ds, g, Options{})
	for i := 0; i < a.Len(); i++ {
		if a.Score(grid.BlockID(i)) != b.Score(grid.BlockID(i)) {
			t.Fatalf("block %d differs between parallel and serial build", i)
		}
	}
}

// Property: Shannon entropy is non-negative and at most log2(#nonzero bins).
func TestShannonBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int64, len(raw))
		nonzero := 0
		for i, r := range raw {
			counts[i] = int64(r)
			if r > 0 {
				nonzero++
			}
		}
		h := Shannon(counts)
		if h < 0 {
			return false
		}
		if nonzero > 0 && h > math.Log2(float64(nonzero))+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NewTable ranking is a permutation of all block IDs.
func TestRankingPermutationProperty(t *testing.T) {
	f := func(scores []float64) bool {
		for i, s := range scores {
			if math.IsNaN(s) {
				scores[i] = 0
			}
		}
		tab := NewTable(scores)
		seen := make(map[grid.BlockID]bool, len(scores))
		for _, id := range tab.TopN(tab.Len()) {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == len(scores)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddAllMatchesAdd pins the hand-inlined batch binning against the
// scalar path on fixed-seed random values: every value must land in the same
// bin (or, at an exact boundary, an adjacent one — which the histogram total
// and a bin-by-bin tolerance of 0 detect anyway for random inputs).
func TestAddAllMatchesAdd(t *testing.T) {
	rng := field.NewRand(123)
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.Float64())
	}
	ha := NewHistogram(64, 0, 1)
	hb := NewHistogram(64, 0, 1)
	ha.AddAll(vals)
	for _, v := range vals {
		hb.add(float64(v))
	}
	if ha.total() != hb.total() {
		t.Fatalf("totals differ: %d vs %d", ha.total(), hb.total())
	}
	for i := range ha.Counts {
		if ha.Counts[i] != hb.Counts[i] {
			t.Fatalf("bin %d: AddAll=%d Add=%d", i, ha.Counts[i], hb.Counts[i])
		}
	}
}
