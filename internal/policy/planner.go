package policy

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
// (BeginFrame, LastUse) belongs to a single loop.
type Planner struct {
	vis   *visibility.Table
	imp   *entropy.Table
	sigma float64

	// lastUse is Algorithm 1's time[num_block]: the view-point index at
	// which each block was last part of the rendered visible set; -1 when
	// never used.
	lastUse []int

	// scratch holds the *[]candidate lists Prefetch ranks in, so no call
	// allocates one and concurrent calls never share one.
	scratch sync.Pool
}

// candidate is a block worth prefetching, its angle to the key's view axis
// and its entropy: everything the ranking compares.
type candidate struct {
	id    grid.BlockID
	angle float64
	score float64
}

// NewPlanner binds the decisions to T_visible, T_important and σ; the tables
// must refer to one block grid.
func NewPlanner(vis *visibility.Table, imp *entropy.Table, sigma float64) (*Planner, error) {
	if vis == nil || imp == nil {
		return nil, fmt.Errorf("policy: the planner needs T_visible and T_important")
	}
	n := vis.Grid().NumBlocks()
	if imp.Len() != n {
		return nil, fmt.Errorf("policy: importance table covers %d blocks, grid has %d", imp.Len(), n)
	}
	p := &Planner{vis: vis, imp: imp, sigma: sigma, lastUse: make([]int, n)}
	p.scratch.New = func() any { return new([]candidate) }
	for i := range p.lastUse {
		p.lastUse[i] = -1
	}
	return p, nil
}

// Preload returns line 7's order: the blocks whose entropy exceeds σ, most
// important first. The executor installs them until fast memory is full, so
// the highest-entropy blocks are the ones that stay resident.
func (p *Planner) Preload() []grid.BlockID { return p.imp.Above(p.sigma) }

// LastUse returns Algorithm 1's time[] entry for a block (-1 = never used).
func (p *Planner) LastUse(id grid.BlockID) int { return p.lastUse[id] }

// BeginFrame marks view point i's working set in time[] up front, so
// installs for the frame cannot evict blocks fetched earlier in it, and
// returns the frame's two replacement rules. A demand fetch may only claim a
// block whose last use predates i ("value in time should be less than i";
// with none left the level falls back to its own order). A speculative
// install must not displace blocks used in the last few frames either:
// interactive wobble revisits them with high probability, and a prefetch is
// never worth a near-certain demand miss. That rule is strict — the install
// is skipped instead of falling back (the block still lands in the slower
// levels, where the next demand fetch finds it cheaply).
func (p *Planner) BeginFrame(i int, visible []grid.BlockID) (demand, speculative func(grid.BlockID) bool) {
	for _, id := range visible {
		p.lastUse[id] = i
	}
	const horizon = 2
	return func(id grid.BlockID) bool { return p.lastUse[id] < i },
		func(id grid.BlockID) bool { return p.lastUse[id] < i-horizon }
}

// Prefetch appends to dst the blocks to prefetch while the frame at pos
// renders, in the order to issue them, and returns it: the predicted set of
// the nearest sampling position, minus the blocks scoring ≤ σ and those mem
// already holds, most likely next first, clamped to the fast-memory budget
// left beside the frame's visible set — §IV-B's "ideal case is that the
// total size of the predicted and current visible blocks is equal to the
// cache size". visible is nil when the caller does not know it (the server
// sees positions, not frames). Nothing is allocated once dst and the pooled
// scratch have grown to the longest list.
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
	key := p.vis.NearestKey(pos)
	keyPos, g := p.vis.KeyPos(key), p.vis.Grid()
	axis := keyPos.Neg().Unit()
	scratch := p.scratch.Get().(*[]candidate)
	cands := (*scratch)[:0]
	for _, id := range p.vis.PredictedSet(key) {
		score := p.imp.Score(id)
		if score <= p.sigma || mem.Contains(id) {
			continue
		}
		cands = append(cands, candidate{id, vec.AngleBetween(g.Center(id).Sub(keyPos), axis), score})
	}
	if len(cands) == 0 { // the warm steady state: skip sizing the frame
		p.scratch.Put(scratch)
		return dst
	}
	slices.SortFunc(cands, func(x, y candidate) int {
		if c := cmp.Compare(x.angle, y.angle); c != 0 {
			return c
		}
		if c := cmp.Compare(y.score, x.score); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
	budget := mem.Capacity()
	for _, id := range visible {
		budget -= mem.SizeOf(id)
	}
	for _, c := range cands {
		// A block larger than what is left is passed over, not the end of
		// the list: a smaller one further down may still fit.
		if size := mem.SizeOf(c.id); size <= budget {
			budget -= size
			dst = append(dst, c.id)
		}
	}
	*scratch = cands
	p.scratch.Put(scratch)
	return dst
}
