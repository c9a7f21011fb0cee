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
	occ      map[grid.BlockID][]int
	resident map[grid.BlockID]bool
	step     int
}

// NewBelady returns the offline OPT policy for the given request trace.
// The simulator must call SetStep(i) before processing trace position i.
func NewBelady(trace []grid.BlockID) *Belady {
	occ := make(map[grid.BlockID][]int)
	for i, id := range trace {
		occ[id] = append(occ[id], i)
	}
	return &Belady{occ: occ, resident: make(map[grid.BlockID]bool)}
}

// Name implements Policy.
func (*Belady) Name() string { return "Belady" }

// SetStep implements StepAware.
func (b *Belady) SetStep(i int) { b.step = i }

// Insert implements Policy.
func (b *Belady) Insert(id grid.BlockID) { b.resident[id] = true }

// Touch implements Policy; residency is all OPT tracks.
func (b *Belady) Touch(grid.BlockID) {}

// Remove implements Policy.
func (b *Belady) Remove(id grid.BlockID) { delete(b.resident, id) }

// nextUse returns the first trace position >= the current step at which id
// is requested, or a sentinel beyond any position when it never recurs.
func (b *Belady) nextUse(id grid.BlockID) int {
	const never = int(^uint(0) >> 1) // max int
	positions := b.occ[id]
	i := sort.SearchInts(positions, b.step)
	if i == len(positions) {
		return never
	}
	return positions[i]
}

// Victim implements Policy: the allowed resident block used farthest in the
// future (never-used blocks first). Ties break by smallest ID for
// determinism.
func (b *Belady) Victim(_ grid.BlockID, allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
	var best grid.BlockID
	bestNext := -1
	found := false
	for id := range b.resident {
		if allowed != nil && !allowed(id) {
			continue
		}
		n := b.nextUse(id)
		if !found || n > bestNext || (n == bestNext && id < best) {
			best, bestNext, found = id, n, true
		}
	}
	return best, found
}
