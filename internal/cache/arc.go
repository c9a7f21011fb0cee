package cache

// ARC, the Adaptive Replacement Cache of Megiddo & Modha (FAST '03, Fig. 4),
// cited in the paper's related work. Resident blocks sit in T1 (seen once)
// or T2 (seen again), the ghosts of blocks evicted from them in B1 and B2,
// and ghost hits move p, T1's target size.
//
// The level decides when to evict and ARC which block, so Fig. 4's one step
// per request is split over the calls a miss makes: Victim (once per block
// the level must push out) and then Insert. Victim is handed the incoming
// block because Fig. 4 decides on it: a ghost hit adapts p before REPLACE
// picks, and a B2 hit takes T1's LRU block when |T1| = p exactly. For a new
// block Victim does case IV's directory upkeep instead, and when T1 alone
// fills the cache its LRU block leaves the directory rather than becoming a
// ghost. c, the cache size, is the most entries the level has held, so ARC
// takes no size of its own and is sized right on any level it is given to.

import "repro/internal/grid"

// ARC is an adaptive replacement policy over block IDs.
type ARC struct {
	c, p           int      // cache size in entries (a high-water mark), T1's target
	lists          [4]chain // t1, t2, b1, b2 in tag order 1–4
	t1, t2, b1, b2 *chain   // resident: seen once, seen at least twice; ghosts: evicted from t1, t2
	ln             []link   // by block ID
	dir            []uint8  // by block ID: the tag of the list holding it, 0 when not in the directory

	// incoming is the block a miss is being served for, once prepared (p
	// adapted or the directory trimmed); victim is the last block Victim
	// named, which Remove makes a ghost when ghost is set.
	incoming grid.BlockID
	prepared bool
	victim   grid.BlockID
	ghost    bool
}

// NewARC returns an empty ARC policy. It takes its cache size from the
// level that drives it.
func NewARC() *ARC {
	a := &ARC{}
	for i := range a.lists {
		a.lists[i] = newChain(uint8(i + 1))
	}
	a.t1, a.t2, a.b1, a.b2 = &a.lists[0], &a.lists[1], &a.lists[2], &a.lists[3]
	return a
}

// Name implements Policy.
func (*ARC) Name() string { return "ARC" }

// on returns the directory list the block is on, nil when it has none.
func (a *ARC) on(id grid.BlockID) *chain {
	if uint(id) < uint(len(a.dir)) && a.dir[id] != 0 {
		return &a.lists[a.dir[id]-1]
	}
	return nil
}

// prepare does the part of Fig. 4 that comes before REPLACE, once per
// admission: a ghost hit adapts p (cases II and III); a new block trims the
// directory (case IV).
func (a *ARC) prepare(id grid.BlockID) {
	if a.prepared && a.incoming == id {
		return
	}
	a.incoming, a.prepared = id, true
	switch a.on(id) {
	case nil:
		if l1 := a.t1.size + a.b1.size; l1 >= a.c {
			if a.t1.size < a.c {
				a.dropLRU(a.b1)
			}
		} else if l1+a.t2.size+a.b2.size >= 2*a.c {
			a.dropLRU(a.b2)
		}
	case a.b1:
		a.p = min(a.c, a.p+max(1, a.b2.size/a.b1.size))
	case a.b2:
		a.p = max(0, a.p-max(1, a.b1.size/a.b2.size))
	}
}

// Victim implements Policy: Fig. 4's REPLACE for the incoming block.
func (a *ARC) Victim(incoming grid.BlockID, allowed Filter) (grid.BlockID, bool) {
	a.prepare(incoming)
	on := a.on(incoming)
	if on == nil && a.t1.size >= a.c {
		a.ghost = false
		return a.t1.scan(a.ln, allowed) // case IV(A): dropped, not ghosted
	}
	first, second := a.t2, a.t1
	if a.t1.size > 0 && (a.t1.size > a.p || (on == a.b2 && a.t1.size == a.p)) {
		first, second = a.t1, a.t2
	}
	id, ok := first.scan(a.ln, allowed)
	if !ok {
		id, ok = second.scan(a.ln, allowed)
	}
	a.victim, a.ghost = id, ok
	return id, ok
}

// Insert implements Policy: a new block enters T1; a ghost, or a resident
// block, moves to T2's MRU end.
func (a *ARC) Insert(id grid.BlockID) {
	a.prepare(id) // a no-op after Victim; needed when the level had room
	if on := a.on(id); on != nil {
		a.move(id, on, a.t2)
	} else {
		a.ln, a.dir = growLinks(a.ln, id), grow(a.dir, id)
		a.push(id, a.t1)
	}
	a.prepared = false
	a.c = max(a.c, a.t1.size+a.t2.size)
}

// Touch implements Policy: a hit moves the block to T2's MRU end.
func (a *ARC) Touch(id grid.BlockID) {
	if on := a.on(id); on == a.t1 || on == a.t2 {
		a.move(id, on, a.t2)
	}
}

// Remove implements Policy. The block Victim named becomes a ghost; any
// other block the level removes (invalidated, not replaced) leaves the
// directory.
func (a *ARC) Remove(id grid.BlockID) {
	on := a.on(id)
	if on == nil || on == a.b1 || on == a.b2 {
		return
	}
	switch {
	case !a.ghost || id != a.victim:
		a.drop(id, on)
	case on == a.t1:
		a.move(id, on, a.b1)
	default:
		a.move(id, on, a.b2)
	}
	a.ghost = false
}

// push enters a block that is in no list at l's MRU end.
func (a *ARC) push(id grid.BlockID, l *chain) {
	l.pushBack(a.ln, id)
	a.dir[id] = l.tag
}

// drop takes the block off l, the list it is on, and out of the directory.
func (a *ARC) drop(id grid.BlockID, l *chain) {
	l.remove(a.ln, id)
	a.dir[id] = 0
}

// move takes the block from the list it is on to dst's MRU end.
func (a *ARC) move(id grid.BlockID, from, dst *chain) {
	a.drop(id, from)
	a.push(id, dst)
}

// dropLRU forgets the ghost at the LRU end of l, if any.
func (a *ARC) dropLRU(l *chain) {
	if l.size > 0 {
		a.drop(l.front, l)
	}
}
