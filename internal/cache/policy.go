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

// Policy is a replacement policy over block IDs. Implementations are not
// safe for concurrent use; the Level that owns one serializes its calls.
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
	// allowed accepts are candidates; a nil allowed accepts any. ok is false
	// when no resident block qualifies. Of the policies here only ARC reads
	// incoming: whether it is one of ARC's ghosts decides the victim.
	Victim(incoming grid.BlockID, allowed func(grid.BlockID) bool) (id grid.BlockID, ok bool)
}

// Factory constructs a fresh policy instance; hierarchies need one policy
// per level.
type Factory func() Policy

// node is a doubly linked intrusive list node used by the queue-ordered
// policies (FIFO, LRU, and ARC's internal lists).
type node struct {
	id         grid.BlockID
	prev, next *node
}

// list is a minimal doubly linked list with sentinel, front = eviction side.
// Removed nodes go on a free chain so a steady churn of evict+insert (a
// cache at capacity) reuses nodes instead of allocating one per insertion.
type list struct {
	head, tail *node
	size       int
	free       *node
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

// remove unlinks n.
func (l *list) remove(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
	l.size--
}

// scan iterates nodes from the eviction end and returns the first whose id
// allowed accepts (any, when allowed is nil).
func (l *list) scan(allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
	for n := l.head.next; n != l.tail; n = n.next {
		if allowed == nil || allowed(n.id) {
			return n.id, true
		}
	}
	return 0, false
}

// queue is what FIFO and LRU share: the resident blocks in eviction order.
type queue struct {
	order *list
	nodes map[grid.BlockID]*node
}

func newQueue() queue {
	return queue{order: newList(), nodes: make(map[grid.BlockID]*node)}
}

// add appends a block that is not queued at the back.
func (q *queue) add(id grid.BlockID) {
	n := q.order.get(id)
	q.nodes[id] = n
	q.order.pushBack(n)
}

// Remove implements Policy.
func (q *queue) Remove(id grid.BlockID) {
	n, ok := q.nodes[id]
	if !ok {
		return
	}
	q.order.remove(n)
	q.order.put(n)
	delete(q.nodes, id)
}

// Victim implements Policy: the first allowed block from the front.
func (q *queue) Victim(_ grid.BlockID, allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
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
	if _, ok := f.nodes[id]; !ok { // FIFO position is fixed at first insertion
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
	if _, ok := l.nodes[id]; ok {
		l.Touch(id)
		return
	}
	l.add(id)
}

// Touch implements Policy.
func (l *LRU) Touch(id grid.BlockID) {
	if n, ok := l.nodes[id]; ok {
		l.order.remove(n)
		l.order.pushBack(n)
	}
}
