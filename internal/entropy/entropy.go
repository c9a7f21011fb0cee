// Package entropy implements the paper's important-block quantification
// (§IV-C): each block's information content is scored with Shannon's entropy
// H(x) = -Σ p(x) log p(x) over a histogram of its values, and a ranking
// table T_important selects the blocks worth pre-loading into fast memory
// and worth prefetching when the visible-set prediction over-predicts.
package entropy

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/grid"
	"repro/internal/volume"
)

// Shannon returns the Shannon entropy in bits of the distribution described
// by histogram counts. Empty histograms and all-zero counts have entropy 0.
func Shannon(counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// Histogram is a fixed-range, fixed-bin-count histogram. Values outside
// [Min, Max] are clamped into the edge bins.
type Histogram struct {
	Min, Max float64
	Counts   []int64
}

// NewHistogram returns a histogram with the given bin count over [min, max].
// It panics if bins < 1 or max <= min, which is always a programming error.
func NewHistogram(bins int, min, max float64) *Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("entropy: bins = %d", bins))
	}
	if !(max > min) {
		panic(fmt.Sprintf("entropy: bad range [%g, %g]", min, max))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, bins)}
}

// add records one value.
func (h *Histogram) add(v float64) {
	bins := len(h.Counts)
	i := int(float64(bins) * (v - h.Min) / (h.Max - h.Min))
	if i < 0 {
		i = 0
	} else if i >= bins {
		i = bins - 1
	}
	h.Counts[i]++
}

// AddAll records every value in vals. The binning loop is inlined with the
// range constants hoisted into one reciprocal multiply — no per-voxel
// method call, field loads, or division. This runs once per voxel of every
// scored block, so it is the hottest loop of T_important construction.
// Binning may differ from Add by one bin for values within a ULP of an
// exact bin boundary (multiply-by-reciprocal vs divide rounding); both are
// valid binnings of such a value and the entropy score is insensitive to
// it.
func (h *Histogram) AddAll(vals []float32) {
	counts := h.Counts
	bins := len(counts)
	min := h.Min
	inv := float64(bins) / (h.Max - h.Min)
	for _, v := range vals {
		i := int((float64(v) - min) * inv)
		if i < 0 {
			i = 0
		} else if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
}

// total returns the number of recorded values.
func (h *Histogram) total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Entropy returns the Shannon entropy in bits of the recorded distribution.
func (h *Histogram) Entropy() float64 { return Shannon(h.Counts) }

// BlockEntropy scores one block's sample values: a histogram with the given
// bin count over the sample range, then Shannon entropy. Blocks whose values
// barely vary (ambient regions) score near zero; the per-histogram range
// adaptation means a block is scored by its internal variation, not by its
// absolute values.
func BlockEntropy(vals []float32, bins int) float64 {
	if len(vals) == 0 {
		return 0
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max <= min {
		return 0 // constant block: no information
	}
	h := NewHistogram(bins, float64(min), float64(max))
	h.AddAll(vals)
	return h.Entropy()
}

// histogramBins is the bin count of each block's histogram.
const histogramBins = 64

// Options configures Build.
type Options struct {
	// MaxSamplesPerAxis bounds per-block sampling cost (default 8; 0 keeps
	// the default, negative samples every voxel).
	MaxSamplesPerAxis int
	// Variable selects which variable to score (default 0, the first). The
	// paper's importance measure is one per dataset; a multivariate caller
	// scores the variable it renders.
	Variable int
}

func (o Options) withDefaults() Options {
	if o.MaxSamplesPerAxis == 0 {
		o.MaxSamplesPerAxis = 8
	}
	if o.MaxSamplesPerAxis < 0 {
		o.MaxSamplesPerAxis = 0 // volume: 0 means all voxels
	}
	return o
}

// Table is the paper's T_important: per-block entropy scores with a ranking.
// It is immutable after Build and safe for concurrent readers.
type Table struct {
	scores []float64      // indexed by BlockID
	ranked []grid.BlockID // descending entropy, ties by ascending ID
}

// Build scores every block of the dataset, on GOMAXPROCS workers, and
// returns the importance table.
func Build(ds *volume.Dataset, g *grid.Grid, opts Options) *Table {
	opts = opts.withDefaults()
	n := g.NumBlocks()
	scores := make([]float64, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				vals := ds.BlockSamples(g, grid.BlockID(i), opts.Variable, opts.MaxSamplesPerAxis)
				scores[i] = BlockEntropy(vals, histogramBins)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return NewTable(scores)
}

// NewTable builds a Table directly from per-block scores (index = BlockID).
// It copies the slice.
func NewTable(scores []float64) *Table {
	t := &Table{
		scores: append([]float64(nil), scores...),
		ranked: make([]grid.BlockID, len(scores)),
	}
	for i := range t.ranked {
		t.ranked[i] = grid.BlockID(i)
	}
	sort.SliceStable(t.ranked, func(a, b int) bool {
		sa, sb := t.scores[t.ranked[a]], t.scores[t.ranked[b]]
		if sa != sb {
			return sa > sb
		}
		return t.ranked[a] < t.ranked[b]
	})
	return t
}

// Len returns the number of blocks scored.
func (t *Table) Len() int { return len(t.scores) }

// Score returns the entropy of the block.
func (t *Table) Score(id grid.BlockID) float64 { return t.scores[id] }

// TopN returns the n highest-entropy blocks (fewer if n exceeds the block
// count). The returned slice is shared; callers must not modify it.
func (t *Table) TopN(n int) []grid.BlockID {
	if n > len(t.ranked) {
		n = len(t.ranked)
	}
	if n < 0 {
		n = 0
	}
	return t.ranked[:n]
}

// MaxScore returns the highest block entropy (0 for an empty table).
func (t *Table) MaxScore() float64 {
	if len(t.ranked) == 0 {
		return 0
	}
	return t.scores[t.ranked[0]]
}

// ThresholdForQuantile returns the entropy value σ such that approximately
// the top q fraction (q ∈ [0, 1]) of blocks score at or above σ. q=0 returns
// +Inf (nothing selected), q=1 returns -Inf (everything selected).
func (t *Table) ThresholdForQuantile(q float64) float64 {
	if len(t.ranked) == 0 || q <= 0 {
		return math.Inf(1)
	}
	if q >= 1 {
		return math.Inf(-1)
	}
	k := int(q * float64(len(t.ranked)))
	if k >= len(t.ranked) {
		k = len(t.ranked) - 1
	}
	return t.scores[t.ranked[k]]
}

// Above returns the IDs whose entropy is strictly greater than sigma, in
// descending entropy order.
func (t *Table) Above(sigma float64) []grid.BlockID {
	out := make([]grid.BlockID, 0)
	for _, id := range t.ranked {
		if t.scores[id] > sigma {
			out = append(out, id)
			continue
		}
		break // ranked is sorted descending
	}
	return out
}
