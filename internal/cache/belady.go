package cache

// Belady's offline OPT (Belady 1966, the paper's [1]): with the full future
// request trace known, evict the resident block whose next use is farthest
// in the future. It is not realizable online; the experiments use it as the
// lower bound the application-aware policy is compared against.

import (
	"sort"

	"repro/internal/grid"
)

// StepAware is implemented by policies that need the simulator to announce
// the current trace position before each access.
type StepAware interface {
	SetStep(i int)
}

// Belady is the offline optimal policy for a fixed block request trace.
type Belady struct {
	occ      [][]int // by block ID: the trace positions requesting it
	resident []bool  // by block ID
	step     int
}

// NewBelady returns the offline OPT policy for the given request trace.
// The simulator must call SetStep(i) before processing trace position i.
func NewBelady(trace []grid.BlockID) *Belady {
	var occ [][]int
	for i, id := range trace {
		occ = grow(occ, id)
		occ[id] = append(occ[id], i)
	}
	return &Belady{occ: occ}
}

// Name implements Policy.
func (*Belady) Name() string { return "Belady" }

// SetStep implements StepAware.
func (b *Belady) SetStep(i int) { b.step = i }

// Insert implements Policy.
func (b *Belady) Insert(id grid.BlockID) {
	b.resident = grow(b.resident, id)
	b.resident[id] = true
}

// Touch implements Policy; residency is all OPT tracks.
func (b *Belady) Touch(grid.BlockID) {}

// Remove implements Policy.
func (b *Belady) Remove(id grid.BlockID) {
	if uint(id) < uint(len(b.resident)) {
		b.resident[id] = false
	}
}

// nextUse returns the first trace position >= the current step at which id
// is requested, or a sentinel beyond any position when it never recurs.
func (b *Belady) nextUse(id grid.BlockID) int {
	const never = int(^uint(0) >> 1) // max int
	if uint(id) >= uint(len(b.occ)) {
		return never
	}
	positions := b.occ[id]
	i := sort.SearchInts(positions, b.step)
	if i == len(positions) {
		return never
	}
	return positions[i]
}

// Victim implements Policy: the allowed resident block used farthest in the
// future (never-used blocks first). Ties break by smallest ID for
// determinism: the blocks are visited in ascending ID order and only a
// strictly later next use displaces the best so far.
func (b *Belady) Victim(_ grid.BlockID, allowed Filter) (grid.BlockID, bool) {
	var best grid.BlockID
	bestNext := -1
	for i, r := range b.resident {
		id := grid.BlockID(i)
		if !r || allowed.Allow != nil && !allowed.Allow(id) {
			continue
		}
		if n := b.nextUse(id); n > bestNext {
			best, bestNext = id, n
		}
	}
	return best, bestNext >= 0
}
