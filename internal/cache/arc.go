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
	c, p   int        // cache size in entries (a high-water mark), T1's target
	t1, t2 *list      // resident: seen once, seen at least twice
	b1, b2 *list      // ghosts: evicted from t1, t2
	where  []arcEntry // by block ID; list nil when not in the directory

	// incoming is the block a miss is being served for, once prepared (p
	// adapted or the directory trimmed); victim is the last block Victim
	// named, which Remove makes a ghost when ghost is set.
	incoming grid.BlockID
	prepared bool
	victim   grid.BlockID
	ghost    bool
}

type arcEntry struct {
	n    *node
	list *list
}

// NewARC returns an empty ARC policy. It takes its cache size from the
// level that drives it.
func NewARC() *ARC {
	return &ARC{
		t1: newList(),
		t2: newList(),
		b1: newList(),
		b2: newList(),
	}
}

// Name implements Policy.
func (*ARC) Name() string { return "ARC" }

// entry returns the block's directory entry, nil when it has none.
func (a *ARC) entry(id grid.BlockID) *arcEntry {
	if uint(id) < uint(len(a.where)) && a.where[id].list != nil {
		return &a.where[id]
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
	e := a.entry(id)
	switch {
	case e == nil:
		if l1 := a.t1.size + a.b1.size; l1 >= a.c {
			if a.t1.size < a.c {
				a.dropLRU(a.b1)
			}
		} else if l1+a.t2.size+a.b2.size >= 2*a.c {
			a.dropLRU(a.b2)
		}
	case e.list == a.b1:
		a.p = min(a.c, a.p+max(1, a.b2.size/a.b1.size))
	case e.list == a.b2:
		a.p = max(0, a.p-max(1, a.b1.size/a.b2.size))
	}
}

// Victim implements Policy: Fig. 4's REPLACE for the incoming block.
func (a *ARC) Victim(incoming grid.BlockID, allowed Filter) (grid.BlockID, bool) {
	a.prepare(incoming)
	e := a.entry(incoming)
	if e == nil && a.t1.size >= a.c {
		a.ghost = false
		return a.t1.scan(allowed) // case IV(A): dropped, not ghosted
	}
	first, second := a.t2, a.t1
	if a.t1.size > 0 && (a.t1.size > a.p || (e != nil && e.list == a.b2 && a.t1.size == a.p)) {
		first, second = a.t1, a.t2
	}
	id, ok := first.scan(allowed)
	if !ok {
		id, ok = second.scan(allowed)
	}
	a.victim, a.ghost = id, ok
	return id, ok
}

// Insert implements Policy: a new block enters T1; a ghost, or a resident
// block, moves to T2's MRU end.
func (a *ARC) Insert(id grid.BlockID) {
	a.prepare(id) // a no-op after Victim; needed when the level had room
	if e := a.entry(id); e != nil {
		a.moveTo(e, a.t2)
	} else {
		n := &node{id: id}
		a.where = grow(a.where, id)
		a.where[id] = arcEntry{n: n, list: a.t1}
		a.t1.pushBack(n)
	}
	a.prepared = false
	a.c = max(a.c, a.t1.size+a.t2.size)
}

// Touch implements Policy: a hit moves the block to T2's MRU end.
func (a *ARC) Touch(id grid.BlockID) {
	if e := a.entry(id); e != nil && (e.list == a.t1 || e.list == a.t2) {
		a.moveTo(e, a.t2)
	}
}

// Remove implements Policy. The block Victim named becomes a ghost; any
// other block the level removes (invalidated, not replaced) leaves the
// directory.
func (a *ARC) Remove(id grid.BlockID) {
	e := a.entry(id)
	if e == nil || e.list == a.b1 || e.list == a.b2 {
		return
	}
	switch {
	case !a.ghost || id != a.victim:
		e.list.remove(e.n)
		*e = arcEntry{}
	case e.list == a.t1:
		a.moveTo(e, a.b1)
	default:
		a.moveTo(e, a.b2)
	}
	a.ghost = false
}

func (a *ARC) moveTo(e *arcEntry, dst *list) {
	e.list.remove(e.n)
	dst.pushBack(e.n)
	e.list = dst
}

// dropLRU forgets the ghost at the LRU end of l, if any.
func (a *ARC) dropLRU(l *list) {
	if l.size == 0 {
		return
	}
	n := l.head.next
	l.remove(n)
	a.where[n.id] = arcEntry{}
}
