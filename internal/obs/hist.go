package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram over int64 values (typically
// nanoseconds or bytes). Observe is lock-free and allocation-free: one
// binary search over the bucket bounds plus a handful of atomic adds, so it
// can sit on the frame hot path. Quantiles are estimated at snapshot time
// by linear interpolation inside the bucket containing the requested rank;
// the error is bounded by that bucket's width.
//
// A nil Histogram ignores observations and snapshots as empty.
type Histogram struct {
	// bounds are ascending inclusive upper bounds; values above the last
	// bound land in an implicit overflow bucket.
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (copied). Nil or empty bounds get DurationBuckets.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// DurationBuckets is the default latency bucket layout: 1µs to ~134s in ×2
// steps (28 buckets) — fine enough to separate a 2ms demand wait from a
// 4ms one, small enough that a histogram is a few hundred bytes.
func DurationBuckets() []int64 {
	b := make([]int64, 28)
	v := int64(1000) // 1µs in ns
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Manual binary search (sort.Search's closure would cost an indirect
	// call per probe): find the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Publish min/max before the bucket count: a reader that copies the
	// buckets first and loads min/max after can then never see an
	// observation counted while the MaxInt64/MinInt64 sentinels still stand.
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// copyCounts copies the bucket counts and returns them with their total.
// Readers load min/max only after this returns (see Observe's ordering).
func (h *Histogram) copyCounts() (counts []int64, total int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// HistogramSnapshot summarizes a histogram at one instant.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot copies the bucket counts once and derives count/sum/min/max and
// the three standard quantiles from that copy, so the quantiles are
// mutually consistent even while observations continue.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts, total := h.copyCounts()
	s := HistogramSnapshot{Count: total, Sum: h.sum.Load()}
	if total == 0 {
		return s
	}
	s.Min, s.Max = h.min.Load(), h.max.Load()
	s.P50 = h.quantileFrom(counts, total, s.Min, s.Max, 0.50)
	s.P95 = h.quantileFrom(counts, total, s.Min, s.Max, 0.95)
	s.P99 = h.quantileFrom(counts, total, s.Min, s.Max, 0.99)
	return s
}

// quantile estimates the q-quantile (0 < q <= 1) of everything observed so
// far. Returns 0 when empty.
func (h *Histogram) quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	counts, total := h.copyCounts()
	if total == 0 {
		return 0
	}
	return h.quantileFrom(counts, total, h.min.Load(), h.max.Load(), q)
}

// quantileFrom walks the copied bucket counts to the bucket holding rank
// ceil(q·total) and interpolates linearly inside it. The bucket's effective
// range is clipped to the observed [min, max], which tightens the estimate
// for the first and last occupied buckets (including the unbounded overflow
// bucket).
func (h *Histogram) quantileFrom(counts []int64, total int64, min, max int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum < rank || c == 0 {
			continue
		}
		bLo := min
		if i > 0 && h.bounds[i-1] > bLo {
			bLo = h.bounds[i-1]
		}
		bHi := max
		if i < len(h.bounds) && h.bounds[i] < bHi {
			bHi = h.bounds[i]
		}
		if bHi < bLo {
			bHi = bLo
		}
		pos := float64(rank-(cum-c)) / float64(c) // (0, 1] within the bucket
		return bLo + int64(pos*float64(bHi-bLo))
	}
	return max
}
