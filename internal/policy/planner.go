// Package policy decides the paper's primary contribution: the
// application-aware I/O optimization of Algorithm 1. It combines the
// T_visible camera-sampling table (package visibility) and the T_important
// entropy ranking (package entropy), and it decides without moving a block.
//
// Planner decides every line:
//
//  1. Lines 1–7, Preload: the blocks whose entropy exceeds the threshold σ,
//     most important first, to fill fast memory before the first view point.
//  2. Lines 8–19, BeginFrame: time[] and the replacement rules — a visible
//     block fetched on demand may displace only a block whose last use
//     predates the current view point, protecting the frame's working set.
//  3. Lines 20–22, Prefetch: during rendering, the nearest sampling
//     position's high-entropy predicted blocks, most likely to be used next
//     first, as many as fit beside the frame's visible set (§IV-B, §IV-C).
//
// Executors carry the decisions out. sim.Session runs all three on the
// simulated hierarchy and charges its simulated time; ooc.Runtime and a
// blocksvc session run the third on a store.MemCache, offering the list to
// their prefetch queue in the planner's order. ImportanceLRU (unified.go) is
// the T_important rule as a replacement policy of its own.
package policy

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/entropy"
	"repro/internal/grid"
	"repro/internal/vec"
	"repro/internal/visibility"
)

// Memory is the planner's read-only view of fast memory: level 0 of the
// simulated hierarchy, or the MemCache of the real path.
type Memory interface {
	// Contains reports that a block needs no prefetch: it is resident, or
	// this memory will never hold it (another shard's block).
	Contains(id grid.BlockID) bool
	SizeOf(id grid.BlockID) int64 // bytes once resident
	Capacity() int64              // fast memory's byte budget
}

// Planner decides Algorithm 1 and moves no block: what to pre-load and in
// what order (line 7), what an install may displace (lines 14–19, time[]),
// and each frame's prefetch list (lines 20–22 with §IV-B's budget and §IV-C's
// order). Executors ask and obey. Preload and Prefetch are safe for
// concurrent use — a server's sessions share one planner; the frame clock
// (BeginFrame) belongs to a single loop.
type Planner struct {
	vis   *visibility.Table
	imp   *entropy.Table
	sigma float64

	// lastUse is Algorithm 1's time[num_block]: the view-point index at
	// which each block was last part of the rendered visible set; -1 when
	// never used.
	lastUse []int
	// frame is the view point of the last BeginFrame, which the two
	// replacement rules, built once, compare time[] with.
	frame               int
	demand, speculative func(grid.BlockID) bool

	// ranked holds, per T_visible key, the key's σ-qualified predicted
	// blocks in prefetch order; nil until the key is first ranked. Every
	// input of the order is fixed for a key, so it is ranked once and each
	// frame that maps to the key only walks the list.
	ranked []atomic.Pointer[[]grid.BlockID]
	// scratch holds the *rankScratch a key is ranked in, so concurrent
	// rankings never share one.
	scratch sync.Pool
}

// rankScratch is the working space of one ranking: the key's set, its
// candidates before and after ordering, and the order's bucket starts.
type rankScratch struct {
	set           []grid.BlockID
	cands, sorted []candidate
	starts        []int
}

// candidate is a block worth prefetching, its angle to the key's view axis
// and its entropy: everything the ranking compares.
type candidate struct {
	id    grid.BlockID
	angle float64
	score float64
}

// NewPlanner binds the decisions to T_visible, T_important and σ; the tables
// must refer to one block grid. Each key is ranked on its first Prefetch.
func NewPlanner(vis *visibility.Table, imp *entropy.Table, sigma float64) (*Planner, error) {
	if vis == nil || imp == nil {
		return nil, fmt.Errorf("policy: the planner needs T_visible and T_important")
	}
	n := vis.Grid().NumBlocks()
	if imp.Len() != n {
		return nil, fmt.Errorf("policy: importance table covers %d blocks, grid has %d", imp.Len(), n)
	}
	p := &Planner{
		vis: vis, imp: imp, sigma: sigma,
		lastUse: make([]int, n),
		ranked:  make([]atomic.Pointer[[]grid.BlockID], vis.NumKeys()),
	}
	p.scratch.New = func() any { return new(rankScratch) }
	const horizon = 2
	p.demand = func(id grid.BlockID) bool { return p.lastUse[id] < p.frame }
	p.speculative = func(id grid.BlockID) bool { return p.lastUse[id] < p.frame-horizon }
	for i := range p.lastUse {
		p.lastUse[i] = -1
	}
	return p, nil
}

// Preload returns line 7's order: the blocks whose entropy exceeds σ, most
// important first. The executor installs them until fast memory is full, so
// the highest-entropy blocks are the ones that stay resident.
func (p *Planner) Preload() []grid.BlockID { return p.imp.Above(p.sigma) }

// BeginFrame marks view point i's working set in time[] up front, so
// installs for the frame cannot evict blocks fetched earlier in it, and
// returns the frame's two replacement rules. A demand fetch may only claim a
// block whose last use predates i ("value in time should be less than i";
// with none left the level falls back to its own order). A speculative
// install must not displace blocks used in the last few frames either:
// interactive wobble revisits them with high probability, and a prefetch is
// never worth a near-certain demand miss. That rule is strict — the install
// is skipped instead of falling back (the block still lands in the slower
// levels, where the next demand fetch finds it cheaply). The rules hold for
// view point i until the next BeginFrame, and are the same two functions
// every frame, so a frame allocates none.
func (p *Planner) BeginFrame(i int, visible []grid.BlockID) (demand, speculative func(grid.BlockID) bool) {
	for _, id := range visible {
		p.lastUse[id] = i
	}
	p.frame = i
	return p.demand, p.speculative
}

// Prefetch appends to dst the blocks to prefetch while the frame at pos
// renders, in the order to issue them, and returns it: the predicted set of
// the nearest sampling position, minus the blocks scoring ≤ σ and those mem
// already holds, most likely next first, clamped to the fast-memory budget
// left beside the frame's visible set — §IV-B's "ideal case is that the
// total size of the predicted and current visible blocks is equal to the
// cache size". visible is nil when the caller does not know it (the server
// sees positions, not frames). Nothing is allocated once dst has grown to
// the longest list and the key has been ranked.
//
// Within the σ-qualified candidates, the blocks nearest the *sampled key's*
// view axis come first: the next view point is an angular perturbation of
// this vicinity, so corridor-central blocks have the highest probability of
// being in its visible set (§IV-C's "blocks with a higher possibility to be
// used for the next view point"). The ranking deliberately uses only
// T_visible information — the key position, not the live camera — so
// prediction quality degrades honestly when the sampling lattice is sparse
// (Fig. 7). Ties break by entropy, then ID.
func (p *Planner) Prefetch(dst []grid.BlockID, pos vec.V3, visible []grid.BlockID, mem Memory) []grid.BlockID {
	// The budget is sized at the first candidate mem lacks, so the warm
	// steady state, every candidate resident, never sizes the frame.
	var budget int64
	sized := false
	for _, id := range p.rankedList(p.vis.NearestKey(pos)) {
		if mem.Contains(id) {
			continue
		}
		if !sized {
			budget, sized = mem.Capacity(), true
			for _, v := range visible {
				budget -= mem.SizeOf(v)
			}
		}
		// A block larger than what is left is passed over, not the end of
		// the list: a smaller one further down may still fit.
		if size := mem.SizeOf(id); size <= budget {
			budget -= size
			dst = append(dst, id)
		}
	}
	return dst
}

// rankedList returns key's σ-qualified predicted blocks in prefetch order,
// ranking them on the key's first lookup. Two callers may rank one cold key
// at once; both build the same list, and the first to publish it wins.
func (p *Planner) rankedList(key int) []grid.BlockID {
	if l := p.ranked[key].Load(); l != nil {
		return *l
	}
	s := p.scratch.Get().(*rankScratch)
	l := p.rank(key, s)
	p.scratch.Put(s)
	p.ranked[key].CompareAndSwap(nil, &l)
	return *p.ranked[key].Load()
}

// rank returns key's σ-qualified predicted blocks in an exactly sized list,
// nearest the key's view axis first, then by entropy descending, then by ID.
// A key's set not memoized by T_visible is computed into s and not kept:
// the list is all that remains of it.
func (p *Planner) rank(key int, s *rankScratch) []grid.BlockID {
	keyPos, g := p.vis.KeyPos(key), p.vis.Grid()
	axis := keyPos.Neg().Unit()
	s.set = p.vis.AppendSet(s.set[:0], key)
	s.cands = s.cands[:0]
	for _, id := range s.set {
		if score := p.imp.Score(id); score > p.sigma {
			s.cands = append(s.cands, candidate{id, vec.AngleBetween(g.Center(id).Sub(keyPos), axis), score})
		}
	}
	sorted := s.order()
	out := make([]grid.BlockID, len(sorted))
	for i, c := range sorted {
		out[i] = c.id
	}
	return out
}

// order returns s.cands in prefetch order, built in s.sorted. It equals
// slices.SortFunc under compareCandidates, in O(n) for spread-out angles: a
// counting sort by bucket int(angle·(n−1)/maxAngle), then an insertion sort
// under the comparator. The order is exact because a correctly rounded
// multiply or divide by a positive constant and the truncation are all
// monotone: a lower bucket holds only strictly smaller angles and exactly
// tied angles share a bucket, so the insertion sort moves an element only
// within its bucket, where the full comparator decides. Angles are in
// [0, π], never NaN (vec.AngleBetween clamps).
func (s *rankScratch) order() []candidate {
	n := len(s.cands)
	maxAngle := 0.0
	for _, c := range s.cands {
		if c.angle > maxAngle {
			maxAngle = c.angle
		}
	}
	bucket := func(angle float64) int {
		if maxAngle == 0 {
			return 0
		}
		return min(int(angle*float64(n-1)/maxAngle), n-1)
	}
	// starts[b+1] counts bucket b, then starts[b] is where it begins.
	starts := slices.Grow(s.starts[:0], n+1)[:n+1]
	clear(starts)
	for _, c := range s.cands {
		starts[bucket(c.angle)+1]++
	}
	for b := 1; b <= n; b++ {
		starts[b] += starts[b-1]
	}
	out := slices.Grow(s.sorted[:0], n)[:n]
	for _, c := range s.cands {
		b := bucket(c.angle)
		out[starts[b]] = c
		starts[b]++
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && compareCandidates(out[j], out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	s.starts, s.sorted = starts, out
	return out
}

// compareCandidates is the prefetch order: angle ascending, then score
// descending, then id ascending.
func compareCandidates(x, y candidate) int {
	if c := cmp.Compare(x.angle, y.angle); c != 0 {
		return c
	}
	if c := cmp.Compare(y.score, x.score); c != 0 {
		return c
	}
	return cmp.Compare(x.id, y.id)
}
