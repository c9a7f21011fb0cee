package experiments

import (
	"strings"
	"testing"
)

// fastOpts keeps experiment tests quick: tiny datasets, short paths. Shape
// assertions (orderings, trends) still hold at this scale.
func fastOpts() Options {
	return Options{Scale: 0.0625, Steps: 30, ClimateVars: 4}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale != 0.25 || o.Steps != 400 || o.CacheRatio != 0.5 {
		t.Errorf("defaults = %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Steps: 7}.WithDefaults()
	if o2.Steps != 7 {
		t.Errorf("Steps overridden: %d", o2.Steps)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	res, err := Table1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 datasets", len(res.Table.Rows))
	}
	text := res.Table.String()
	for _, want := range []string{"3d_ball", "lifted_mix_frac", "lifted_rr", "climate",
		"1024x1024x1024", "800x686x215", "800x800x400", "294x258x98", "GB"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table I missing %q:\n%s", want, text)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	o := fastOpts()
	res, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	counts := PaperSamplingCounts()
	if len(res.XLabels) != len(counts) {
		t.Fatalf("xlabels = %v", res.XLabels)
	}
	for _, name := range Fig7Datasets() {
		io := res.Series[name+"/iotime_ms"]
		mr := res.Series[name+"/missrate"]
		if len(io) != len(counts) || len(mr) != len(counts) {
			t.Fatalf("%s: series lengths %d/%d", name, len(io), len(mr))
		}
		// The paper's Fig. 7(b) finding: the densest lattice must NOT be
		// the I/O-time optimum — query overhead eventually dominates.
		minIdx := 0
		for i, v := range io {
			if v < io[minIdx] {
				minIdx = i
			}
		}
		if minIdx == len(io)-1 {
			t.Errorf("%s: I/O time minimal at the densest lattice; no overhead effect", name)
		}
		// I/O time grows from the optimum to the densest point.
		if io[len(io)-1] <= io[minIdx] {
			t.Errorf("%s: densest I/O %.1f <= optimum %.1f", name, io[len(io)-1], io[minIdx])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	o := fastOpts()
	o.Steps = 20
	res, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	nSizes := len(res.XLabels)
	if nSizes != 6 {
		t.Fatalf("block sizes = %d, want 6", nSizes)
	}
	panels := 0
	for key := range res.Series {
		if !strings.HasSuffix(key, "/OPT") {
			continue
		}
		panels++
		base := strings.TrimSuffix(key, "/OPT")
		opt := res.Series[key]
		lru := res.Series[base+"/LRU"]
		fifo := res.Series[base+"/FIFO"]
		for i := 0; i < nSizes; i++ {
			// Paper's headline: OPT below both baselines for every block
			// division on every path.
			if opt[i] >= lru[i] || opt[i] >= fifo[i] {
				t.Errorf("%s size %s: OPT %.3f not below LRU %.3f / FIFO %.3f",
					base, res.XLabels[i], opt[i], lru[i], fifo[i])
			}
		}
	}
	if panels != len(SphericalDegrees())+len(RandomDegreeRanges()) {
		t.Errorf("panels = %d", panels)
	}
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	combined := res.Series["io_prefetch_ms"]
	if len(combined) != 5 {
		t.Fatalf("strategies = %d", len(combined))
	}
	// The Eq. (6) dynamic radius (index 0) must beat most fixed radii; we
	// assert it is within 5% of the best strategy and strictly better than
	// the worst (the paper shows it lowest outright; at simulator scale it
	// occasionally ties the best fixed radius).
	best, worst := combined[0], combined[0]
	for _, v := range combined {
		if v < best {
			best = v
		}
		if v > worst {
			worst = v
		}
	}
	if combined[0] > best*1.05 {
		t.Errorf("dynamic radius %.1fms more than 5%% above best %.1fms", combined[0], best)
	}
	if combined[0] >= worst && worst > best {
		t.Errorf("dynamic radius is the worst strategy: %v", combined)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range []string{"spherical", "random"} {
		opt := res.Series[panel+"/OPT"]
		lru := res.Series[panel+"/LRU"]
		fifo := res.Series[panel+"/FIFO"]
		if len(opt) == 0 {
			t.Fatalf("%s: empty series", panel)
		}
		for i := range opt {
			if opt[i] >= lru[i] {
				t.Errorf("%s[%d]: OPT %.3f >= LRU %.3f", panel, i, opt[i], lru[i])
			}
			if opt[i] >= fifo[i] {
				t.Errorf("%s[%d]: OPT %.3f >= FIFO %.3f", panel, i, opt[i], fifo[i])
			}
		}
		// Miss rate grows with per-step view change (first vs last point)
		// for every policy.
		for _, pol := range []string{"FIFO", "LRU", "OPT"} {
			s := res.Series[panel+"/"+pol]
			if s[0] >= s[len(s)-1] {
				t.Errorf("%s/%s: miss rate not increasing with degree: %.3f .. %.3f",
					panel, pol, s[0], s[len(s)-1])
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	// Fig. 13's small-angle win only emerges once the preload/table
	// investment amortizes, so this test uses a longer path than the rest.
	o := fastOpts()
	o.Steps = 120
	res, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	n := len(RandomDegreeRanges())
	for _, ratio := range []string{"r0.5", "r0.7"} {
		for _, pol := range []string{"FIFO", "LRU", "OPT"} {
			if len(res.Series[ratio+"/"+pol]) != n {
				t.Fatalf("%s/%s: wrong series length", ratio, pol)
			}
		}
	}
	// Paper finding 1: at ratio 0.5 OPT wins at the smallest view change
	// (+2.7% at full experiment scale). At test scale the margin is within
	// noise, so assert competitiveness (within 5%) rather than a strict
	// win; the strict-win case is checked at ratio 0.7 below.
	if res.Series["r0.5/OPT"][0] > 1.05*res.Series["r0.5/LRU"][0] {
		t.Errorf("ratio 0.5, 0-5°: OPT %.0fms not within 5%% of LRU %.0fms",
			res.Series["r0.5/OPT"][0], res.Series["r0.5/LRU"][0])
	}
	// At ratio 0.7 the win is decisive even at test scale.
	if res.Series["r0.7/OPT"][0] >= res.Series["r0.7/LRU"][0] {
		t.Errorf("ratio 0.7, 0-5°: OPT %.0fms >= LRU %.0fms",
			res.Series["r0.7/OPT"][0], res.Series["r0.7/LRU"][0])
	}
	// Paper finding 2: the larger cache ratio extends OPT's win — its
	// advantage (relative to LRU) at 10-15° must be larger at 0.7 than 0.5.
	adv := func(ratio string, i int) float64 {
		lru := res.Series[ratio+"/LRU"][i]
		opt := res.Series[ratio+"/OPT"][i]
		return (lru - opt) / lru
	}
	if adv("r0.7", 2) <= adv("r0.5", 2) {
		t.Errorf("10-15° advantage at 0.7 (%.2f) not above 0.5 (%.2f)",
			adv("r0.7", 2), adv("r0.5", 2))
	}
	// Paper finding 3: at ratio 0.5 the synchronous prefetcher loses to
	// LRU at the largest view changes (the published crossover).
	if res.Series["r0.5/OPT"][n-1] <= res.Series["r0.5/LRU"][n-1] {
		t.Errorf("ratio 0.5, 30-35°: OPT %.0fms did not regress past LRU %.0fms (no crossover)",
			res.Series["r0.5/OPT"][n-1], res.Series["r0.5/LRU"][n-1])
	}
	// Total time grows with view change under the baselines.
	for _, ratio := range []string{"r0.5", "r0.7"} {
		s := res.Series[ratio+"/LRU"]
		if s[0] >= s[n-1] {
			t.Errorf("%s/LRU: total not increasing: %.0f .. %.0f", ratio, s[0], s[n-1])
		}
	}
}

func TestAblationComponentsShape(t *testing.T) {
	res, err := AblationComponents(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mr := res.Series["missrate"]
	if len(mr) != 5 {
		t.Fatalf("variants = %d", len(mr))
	}
	// The full algorithm must not lose to the fully stripped variant.
	full, none := mr[0], mr[len(mr)-1]
	if full > none {
		t.Errorf("full %.3f > stripped %.3f", full, none)
	}
	// Disabling prefetch must not reduce the miss rate below the full
	// configuration (prefetch only ever helps the miss metric).
	noPrefetch := mr[2]
	if noPrefetch < full {
		t.Errorf("no-prefetch %.3f < full %.3f", noPrefetch, full)
	}
}

func TestAblationSigmaShape(t *testing.T) {
	res, err := AblationSigma(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	pf := res.Series["prefetches"]
	if len(pf) != len(SigmaQuantiles()) {
		t.Fatalf("points = %d", len(pf))
	}
	// More permissive σ (larger quantile) must not decrease prefetch
	// volume.
	for i := 1; i < len(pf); i++ {
		if pf[i] < pf[i-1] {
			t.Errorf("prefetches not monotone in quantile: %v", pf)
		}
	}
}

func TestAblationPoliciesShape(t *testing.T) {
	res, err := AblationPolicies(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.XLabels) != 5 {
		t.Fatalf("policies = %v", res.XLabels)
	}
	mr := res.Series["missrate"]
	byName := map[string]float64{}
	for i, name := range res.XLabels {
		byName[name] = mr[i]
	}
	// The app-aware policy beats every application-agnostic online policy.
	opt := byName["OPT(app-aware)"]
	for _, name := range []string{"FIFO", "LRU", "ARC"} {
		if opt >= byName[name] {
			t.Errorf("OPT %.3f >= %s %.3f", opt, name, byName[name])
		}
	}
}

func TestAblationOverlapShape(t *testing.T) {
	res, err := AblationOverlap(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Series["total_ms"]
	if len(tot) != 2 {
		t.Fatalf("points = %d", len(tot))
	}
	// Overlapped accounting is never slower than serialized.
	if tot[0] > tot[1] {
		t.Errorf("overlapped %.0f > serialized %.0f", tot[0], tot[1])
	}
}

func TestAblationPrefetchWindowShape(t *testing.T) {
	o := fastOpts()
	res, err := AblationPrefetchWindow(o)
	if err != nil {
		t.Fatal(err)
	}
	n := len(RandomDegreeRanges())
	for _, key := range []string{"lru_ms", "unbounded_ms", "windowed_ms"} {
		if len(res.Series[key]) != n {
			t.Fatalf("%s: wrong length", key)
		}
	}
	// The windowed extension must not meaningfully lose to unbounded
	// prefetching at the largest view change (where unbounded
	// over-speculates hardest); 2% tolerance for scheduling noise.
	last := n - 1
	if res.Series["windowed_ms"][last] > 1.02*res.Series["unbounded_ms"][last] {
		t.Errorf("windowed %.0fms > unbounded %.0fms at 30-35°",
			res.Series["windowed_ms"][last], res.Series["unbounded_ms"][last])
	}
}

func TestExtLODShape(t *testing.T) {
	res, err := ExtLOD(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	lodMB := res.Series["lod_mb_per_frame"]
	fullMB := res.Series["fullres_mb_per_frame"]
	errs := res.Series["level_error"]
	if len(lodMB) != 4 || len(fullMB) != 4 || len(errs) != 4 {
		t.Fatalf("series lengths %d/%d/%d", len(lodMB), len(fullMB), len(errs))
	}
	// Near the volume, LOD = full resolution: identical bytes, zero error.
	if lodMB[0] != fullMB[0] {
		t.Errorf("near view: LOD %.2fMB != full %.2fMB", lodMB[0], fullMB[0])
	}
	if errs[0] != 0 {
		t.Errorf("near view error = %g", errs[0])
	}
	// Far away, LOD loads a fraction of the data but pays accuracy.
	last := len(lodMB) - 1
	if lodMB[last] >= fullMB[last] {
		t.Errorf("far view: LOD %.2fMB >= full %.2fMB; no savings", lodMB[last], fullMB[last])
	}
	if errs[last] <= 0 {
		t.Error("far view: no downsampling error despite coarse level")
	}
}

func TestExtTimeShape(t *testing.T) {
	res, err := ExtTime(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	io := res.Series["io_ms"]
	miss := res.Series["missrate"]
	if len(io) != 2 || len(miss) != 2 {
		t.Fatalf("series = %v", res.Series)
	}
	// Without temporal prefetch every timestep's data is cold: miss rate 1.
	if miss[0] < 0.99 {
		t.Errorf("baseline miss rate = %g, want ~1 (all-cold timesteps)", miss[0])
	}
	// Temporal importance prefetch must cut demand I/O by at least 2×.
	if io[1] >= io[0]/2 {
		t.Errorf("temporal prefetch I/O %.0fms not below half of baseline %.0fms", io[1], io[0])
	}
}

func TestExtVRShape(t *testing.T) {
	o := fastOpts()
	o.Steps = 80 // head motion needs enough steps to include saccades
	res, err := ExtVR(o)
	if err != nil {
		t.Fatal(err)
	}
	mr := res.Series["missrate"]
	if len(mr) != 3 {
		t.Fatalf("policies = %v", res.XLabels)
	}
	// Order: FIFO, LRU, OPT. OPT must beat both on the tremor-heavy
	// head-motion profile.
	if mr[2] >= mr[1] || mr[2] >= mr[0] {
		t.Errorf("OPT miss %.3f not below FIFO %.3f / LRU %.3f", mr[2], mr[0], mr[1])
	}
}

func TestExtQueryShape(t *testing.T) {
	res, err := ExtQuery(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	blocks := res.Series["blocks"]
	io := res.Series["io_ms"]
	if len(blocks) != 4 || len(io) != 4 {
		t.Fatalf("series = %v", res.XLabels)
	}
	// Rows: full/LRU, full/OPT, query/LRU, query/OPT.
	// The flame query must shrink per-frame working sets and I/O.
	if blocks[2] >= blocks[0] {
		t.Errorf("query blocks %.1f >= full %.1f", blocks[2], blocks[0])
	}
	if io[2] >= io[0] {
		t.Errorf("query LRU I/O %.0f >= full LRU %.0f", io[2], io[0])
	}
	// Importance preload must help the query mode (flame = high entropy).
	if io[3] >= io[2] {
		t.Errorf("query OPT I/O %.0f >= query LRU %.0f", io[3], io[2])
	}
}

func TestScaledDatasetUnknown(t *testing.T) {
	if _, err := scaledDataset("nope", fastOpts()); err == nil {
		t.Error("unknown dataset accepted")
	}
}
