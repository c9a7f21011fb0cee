// Package cache implements the block replacement policies the experiments
// compare — the paper's FIFO and LRU baselines, ARC (Megiddo & Modha) and
// Belady's offline OPT — and Level, the capacity-bounded cache level that
// uses them. Each policy equals its textbook reference hit for hit
// (oracle_test.go). A Policy orders victims only; a Level adds the byte
// budget, the resident entries and the admit-and-evict loop, once for every
// host: the simulator (memhier, which adds device costs), the DRAM cache
// (store.MemCache, which adds the bytes and the I/O), the spill tier's index
// (tier) and trace.Replay.
package cache

import "repro/internal/grid"

// Policy is a replacement policy over block IDs, which are a grid's block
// indices: Insert takes none below zero, and every other call treats one as
// not resident. Per-block state is kept in slices indexed by ID, grown by
// Insert. Implementations are not safe for concurrent use; the Level that
// owns one serializes its calls.
type Policy interface {
	// Name identifies the policy, e.g. "LRU".
	Name() string
	// Insert records id becoming resident. Inserting an already resident
	// id is equivalent to Touch.
	Insert(id grid.BlockID)
	// Touch records a hit on a resident id. Touching a non-resident id is
	// a no-op.
	Touch(id grid.BlockID)
	// Remove evicts id from the policy state; a no-op when not resident.
	Remove(id grid.BlockID)
	// Victim names the resident block to evict so that incoming can come
	// in, without removing it: the caller removes it next. Only blocks
	// allowed accepts are candidates. ok is false when no resident block
	// qualifies. Of the policies here only ARC reads incoming: whether it is
	// one of ARC's ghosts decides the victim.
	Victim(incoming grid.BlockID, allowed Filter) (id grid.BlockID, ok bool)
}

// Filter restricts the blocks a Victim call may name; the zero Filter
// accepts any. A Filter installed by Level.SetEvictFilter also carries the
// generation of that installation, and a policy's queue keeps a cursor past
// the blocks the generation has refused: the victims of one installation
// then cost one pass over the queue together, not a pass each. A Filter
// written as a literal has no generation and is checked from the front on
// every call.
type Filter struct {
	Allow func(grid.BlockID) bool // nil accepts any block
	gen   uint64                  // the level's count of installations; 0 for none
}

// Factory constructs a fresh policy instance; hierarchies need one policy
// per level.
type Factory func() Policy

// grow returns s lengthened with zero values until id indexes it.
func grow[T any](s []T, id grid.BlockID) []T {
	if n := int(id) + 1; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// none ends a list: the block before the front and after the back.
const none grid.BlockID = -1

// link is a block's place in its policy's order: its neighbours, none at the
// ends and for a block on no list. A policy keeps one link per block ID in a
// slice that every one of its lists threads through (FIFO and LRU's queue,
// ARC's four lists), so an order is walked in one contiguous array and a
// churn of evict+insert allocates nothing.
type link struct{ next, prev grid.BlockID }

// growLinks returns ln lengthened with unlinked blocks until id indexes it.
func growLinks(ln []link, id grid.BlockID) []link {
	n := len(ln)
	ln = grow(ln, id)
	for i := n; i < len(ln); i++ {
		ln[i] = link{none, none}
	}
	return ln
}

// chain is a doubly linked list of block IDs threaded through a links slice
// by ID, front = eviction side. Its methods take that slice, grown by the
// policy to cover every ID pushed. A block is on it when it is its front or
// has a block before it.
//
// cur is the filter cursor: the last block from the front that the filter of
// generation gen has refused, every block before it refused too, or none.
// Blocks only join at the back, after it, and remove steps it back when it
// unlinks it, so it stays true for as long as that filter's verdicts hold.
type chain struct {
	front, back grid.BlockID
	size        int
	cur         grid.BlockID
	gen         uint64
	tag         uint8 // ARC's name for the list in its directory
}

func newChain(tag uint8) chain { return chain{front: none, back: none, cur: none, tag: tag} }

// pushBack appends a block that is on no list at the most-recently-used end.
func (l *chain) pushBack(ln []link, id grid.BlockID) {
	ln[id] = link{prev: l.back, next: none}
	if l.back == none {
		l.front = id
	} else {
		ln[l.back].next = id
	}
	l.back = id
	l.size++
}

// remove unlinks a block on l, stepping the filter cursor back off it.
func (l *chain) remove(ln []link, id grid.BlockID) {
	k := ln[id]
	if id == l.cur {
		l.cur = k.prev
	}
	if k.prev == none {
		l.front = k.next
	} else {
		ln[k.prev].next = k.next
	}
	if k.next == none {
		l.back = k.prev
	} else {
		ln[k.next].prev = k.prev
	}
	ln[id] = link{none, none}
	l.size--
}

// scan returns the first block from the eviction end that f accepts.
// Under the generation the cursor was built in it starts past the blocks
// already refused; under another it restarts the cursor from the front.
func (l *chain) scan(ln []link, f Filter) (grid.BlockID, bool) {
	if f.Allow == nil {
		return l.front, l.size > 0
	}
	from := none
	if f.gen != 0 {
		if f.gen != l.gen {
			l.cur, l.gen = none, f.gen
		}
		from = l.cur
	}
	n := l.front
	if from != none {
		n = ln[from].next
	}
	for n != none && !f.Allow(n) {
		n = ln[n].next
	}
	if f.gen != 0 {
		if n == none {
			l.cur = l.back
		} else {
			l.cur = ln[n].prev
		}
	}
	return n, n != none
}

// queue is what FIFO and LRU share: the resident blocks in eviction order.
type queue struct {
	order chain
	ln    []link // by block ID
}

func newQueue() queue { return queue{order: newChain(0)} }

// queued reports whether the block is in the queue.
func (q *queue) queued(id grid.BlockID) bool {
	return uint(id) < uint(len(q.ln)) && (q.order.front == id || q.ln[id].prev != none)
}

// add appends a block that is not queued at the back.
func (q *queue) add(id grid.BlockID) {
	q.ln = growLinks(q.ln, id)
	q.order.pushBack(q.ln, id)
}

// Remove implements Policy.
func (q *queue) Remove(id grid.BlockID) {
	if q.queued(id) {
		q.order.remove(q.ln, id)
	}
}

// Victim implements Policy: the first allowed block from the front.
func (q *queue) Victim(_ grid.BlockID, allowed Filter) (grid.BlockID, bool) {
	return q.order.scan(q.ln, allowed)
}

// FIFO evicts blocks in insertion order; hits do not change the order.
type FIFO struct{ queue }

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{newQueue()} }

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

// Insert implements Policy.
func (f *FIFO) Insert(id grid.BlockID) {
	if !f.queued(id) { // FIFO position is fixed at first insertion
		f.add(id)
	}
}

// Touch implements Policy; FIFO ignores hits.
func (*FIFO) Touch(grid.BlockID) {}

// LRU evicts the least recently used block; both Insert and Touch move a
// block to the most-recently-used position.
type LRU struct{ queue }

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{newQueue()} }

// Name implements Policy.
func (*LRU) Name() string { return "LRU" }

// Insert implements Policy.
func (l *LRU) Insert(id grid.BlockID) {
	if l.queued(id) {
		l.Touch(id)
		return
	}
	l.add(id)
}

// Touch implements Policy.
func (l *LRU) Touch(id grid.BlockID) {
	if l.queued(id) {
		l.order.remove(l.ln, id)
		l.order.pushBack(l.ln, id)
	}
}
