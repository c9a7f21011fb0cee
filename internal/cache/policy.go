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

// node is a doubly linked intrusive list node used by the queue-ordered
// policies (FIFO, LRU, and ARC's internal lists).
type node struct {
	id         grid.BlockID
	prev, next *node
}

// list is a minimal doubly linked list with sentinel, front = eviction side.
// Removed nodes go on a free chain so a steady churn of evict+insert (a
// cache at capacity) reuses nodes instead of allocating one per insertion.
//
// cur is the filter cursor: the last node from the front that the filter of
// generation gen has refused, every node before it refused too, or head.
// Nodes only join at the back, after it, and remove steps it back when it
// unlinks it, so it stays true for as long as that filter's verdicts hold.
type list struct {
	head, tail *node
	size       int
	free       *node
	cur        *node
	gen        uint64
}

// get returns a recycled node carrying id, allocating only when the free
// chain is empty.
func (l *list) get(id grid.BlockID) *node {
	n := l.free
	if n == nil {
		return &node{id: id}
	}
	l.free = n.next
	n.id, n.prev, n.next = id, nil, nil
	return n
}

// put pushes an unlinked node onto the free chain.
func (l *list) put(n *node) {
	n.prev, n.next = nil, l.free
	l.free = n
}

func newList() *list {
	l := &list{head: &node{}, tail: &node{}}
	l.head.next = l.tail
	l.tail.prev = l.head
	l.cur = l.head
	return l
}

// pushBack appends n at the most-recently-used end.
func (l *list) pushBack(n *node) {
	n.prev = l.tail.prev
	n.next = l.tail
	l.tail.prev.next = n
	l.tail.prev = n
	l.size++
}

// remove unlinks n, stepping the filter cursor back off it.
func (l *list) remove(n *node) {
	if n == l.cur {
		l.cur = n.prev
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
	l.size--
}

// scan returns the first node's id from the eviction end that f accepts.
// Under the generation the cursor was built in it starts past the nodes
// already refused; under another it restarts the cursor from the front.
func (l *list) scan(f Filter) (grid.BlockID, bool) {
	if f.Allow == nil {
		return l.head.next.id, l.size > 0
	}
	from := l.head
	if f.gen != 0 {
		if f.gen != l.gen {
			l.cur, l.gen = l.head, f.gen
		}
		from = l.cur
	}
	n := from.next
	for n != l.tail && !f.Allow(n.id) {
		n = n.next
	}
	if f.gen != 0 {
		l.cur = n.prev
	}
	return n.id, n != l.tail
}

// queue is what FIFO and LRU share: the resident blocks in eviction order.
type queue struct {
	order *list
	nodes []*node // by block ID; nil when not queued
}

func newQueue() queue { return queue{order: newList()} }

// node returns the block's node, nil when it is not queued.
func (q *queue) node(id grid.BlockID) *node {
	if uint(id) < uint(len(q.nodes)) {
		return q.nodes[id]
	}
	return nil
}

// add appends a block that is not queued at the back.
func (q *queue) add(id grid.BlockID) {
	n := q.order.get(id)
	q.nodes = grow(q.nodes, id)
	q.nodes[id] = n
	q.order.pushBack(n)
}

// Remove implements Policy.
func (q *queue) Remove(id grid.BlockID) {
	n := q.node(id)
	if n == nil {
		return
	}
	q.order.remove(n)
	q.order.put(n)
	q.nodes[id] = nil
}

// Victim implements Policy: the first allowed block from the front.
func (q *queue) Victim(_ grid.BlockID, allowed Filter) (grid.BlockID, bool) {
	return q.order.scan(allowed)
}

// FIFO evicts blocks in insertion order; hits do not change the order.
type FIFO struct{ queue }

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{newQueue()} }

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

// Insert implements Policy.
func (f *FIFO) Insert(id grid.BlockID) {
	if f.node(id) == nil { // FIFO position is fixed at first insertion
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
	if l.node(id) != nil {
		l.Touch(id)
		return
	}
	l.add(id)
}

// Touch implements Policy.
func (l *LRU) Touch(id grid.BlockID) {
	if n := l.node(id); n != nil {
		l.order.remove(n)
		l.order.pushBack(n)
	}
}
