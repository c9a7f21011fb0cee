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

// never is the next use of a block that is not requested again: beyond any
// trace position.
const never = int(^uint(0) >> 1) // max int

// Belady is the offline optimal policy for a fixed block request trace.
//
// An unfiltered Victim costs O(log n) amortized. Every resident block has a
// key, its next use as of the step it was keyed at; a key stays its next use
// as the step advances up to it, and only a step past it (the block's own
// request, or one a host skipped) or a step moved back makes it stale. far,
// a max-heap on key, names the victim; near, a min-heap on key, finds the
// keys the step has passed, which are re-keyed before a victim is chosen.
// Both heaps are lazy: an entry whose block has left, or whose key has
// moved, is dropped when it surfaces, and both are rebuilt from the
// resident keys once stale entries outnumber live ones.
type Belady struct {
	occ      [][]int // by block ID: the trace positions requesting it
	resident []bool  // by block ID
	key      []int   // by block ID: a resident block's next use when keyed
	n        int     // resident blocks
	step     int
	back     bool // the step moved back since the keys were made: re-key all
	far      optHeap
	near     optHeap
}

// NewBelady returns the offline OPT policy for the given request trace.
// The simulator must call SetStep(i) before processing trace position i.
func NewBelady(trace []grid.BlockID) *Belady {
	var occ [][]int
	for i, id := range trace {
		occ = grow(occ, id)
		occ[id] = append(occ[id], i)
	}
	return &Belady{occ: occ, far: optHeap{far: true}}
}

// Name implements Policy.
func (*Belady) Name() string { return "Belady" }

// SetStep implements StepAware.
func (b *Belady) SetStep(i int) {
	if i < b.step {
		b.back = true
	}
	b.step = i
}

// Insert implements Policy.
func (b *Belady) Insert(id grid.BlockID) {
	b.resident = grow(b.resident, id)
	if b.resident[id] {
		return
	}
	b.resident[id] = true
	b.n++
	b.key = grow(b.key, id)
	b.file(id)
}

// Touch implements Policy; residency is all OPT tracks, and a key the
// block's request passes is re-keyed when a victim is next chosen.
func (b *Belady) Touch(grid.BlockID) {}

// Remove implements Policy. The block's heap entries go stale in place.
func (b *Belady) Remove(id grid.BlockID) {
	if uint(id) < uint(len(b.resident)) && b.resident[id] {
		b.resident[id] = false
		b.n--
	}
}

// nextUse returns the first trace position >= the current step at which id
// is requested, or never when it does not recur.
func (b *Belady) nextUse(id grid.BlockID) int {
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

// file keys the resident id at the current step and pushes the entry on
// both heaps (on far alone when it never recurs: no step passes never).
func (b *Belady) file(id grid.BlockID) {
	e := optEntry{next: b.nextUse(id), id: id}
	b.key[id] = e.next
	b.far.push(e)
	if e.next != never {
		b.near.push(e)
	}
	if len(b.far.e) > 2*b.n+64 || len(b.near.e) > 2*b.n+64 {
		b.rebuild(false)
	}
}

// live reports whether e is its block's current entry.
func (b *Belady) live(e optEntry) bool {
	return b.resident[e.id] && b.key[e.id] == e.next
}

// rebuild refills both heaps with one entry per resident block, re-keying
// every block at the current step first when rekey is set.
func (b *Belady) rebuild(rekey bool) {
	b.far.e, b.near.e = b.far.e[:0], b.near.e[:0]
	for i, r := range b.resident {
		if !r {
			continue
		}
		id := grid.BlockID(i)
		if rekey {
			b.key[id] = b.nextUse(id)
		}
		e := optEntry{next: b.key[id], id: id}
		b.far.e = append(b.far.e, e)
		if e.next != never {
			b.near.e = append(b.near.e, e)
		}
	}
	b.far.init()
	b.near.init()
}

// Victim implements Policy: the allowed resident block used farthest in the
// future (never-used blocks first). Ties break by smallest ID for
// determinism. Unfiltered, the far heap's first live entry is the victim
// once every key the step has passed is renewed; a filter is answered by a
// scan in ascending ID order, in which only a strictly later next use
// displaces the best so far.
func (b *Belady) Victim(_ grid.BlockID, allowed Filter) (grid.BlockID, bool) {
	if allowed.Allow != nil {
		return b.scan(allowed)
	}
	if b.back {
		b.back = false
		b.rebuild(true)
	}
	for len(b.near.e) > 0 && b.near.e[0].next < b.step {
		e := b.near.pop()
		if b.live(e) {
			b.file(e.id)
		}
	}
	for len(b.far.e) > 0 {
		if e := b.far.e[0]; b.live(e) {
			return e.id, true
		}
		b.far.pop()
	}
	return 0, false
}

// scan is Victim under a filter: every allowed resident block visited.
func (b *Belady) scan(allowed Filter) (grid.BlockID, bool) {
	var best grid.BlockID
	bestNext := -1
	for i, r := range b.resident {
		id := grid.BlockID(i)
		if !r || !allowed.Allow(id) {
			continue
		}
		if n := b.nextUse(id); n > bestNext {
			best, bestNext = id, n
		}
	}
	return best, bestNext >= 0
}

// optEntry is a block filed under its key.
type optEntry struct {
	next int
	id   grid.BlockID
}

// optHeap is a binary heap of entries: the farthest next use on top (ties:
// the smallest ID) when far is set, the nearest otherwise.
type optHeap struct {
	e   []optEntry
	far bool
}

func (h *optHeap) above(a, b optEntry) bool {
	if !h.far {
		return a.next < b.next
	}
	return a.next > b.next || a.next == b.next && a.id < b.id
}

func (h *optHeap) push(e optEntry) {
	h.e = append(h.e, e)
	for i := len(h.e) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.above(h.e[i], h.e[p]) {
			break
		}
		h.e[i], h.e[p] = h.e[p], h.e[i]
		i = p
	}
}

func (h *optHeap) pop() optEntry {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	h.down(0)
	return top
}

func (h *optHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.e) {
			return
		}
		if r := c + 1; r < len(h.e) && h.above(h.e[r], h.e[c]) {
			c = r
		}
		if !h.above(h.e[c], h.e[i]) {
			return
		}
		h.e[i], h.e[c] = h.e[c], h.e[i]
		i = c
	}
}

func (h *optHeap) init() {
	for i := len(h.e)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
