// Package cache implements block replacement policies — the paper's FIFO and
// LRU baselines plus CLOCK, LFU, ARC, and Belady's offline OPT for ablations
// — and Level, the capacity-bounded cache level that uses them. A Policy
// tracks membership and eviction order only; a Level adds the byte budget,
// the resident entries and the admit-and-evict loop, once for every host:
// the simulator (memhier, which adds device costs), the DRAM cache
// (store.MemCache, which adds the bytes and the I/O), the spill tier's index
// (tier) and trace.Replay.
package cache

import "repro/internal/grid"

// Policy is a replacement policy over block IDs. Implementations are not
// safe for concurrent use; the simulator serializes accesses.
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
	// Victim returns the block the policy would evict next, without
	// removing it. ok is false when the policy tracks no blocks.
	Victim() (id grid.BlockID, ok bool)
	// VictimWhere returns the first block in eviction order satisfying
	// allowed. ok is false when no resident block qualifies.
	VictimWhere(allowed func(grid.BlockID) bool) (id grid.BlockID, ok bool)
	// Contains reports whether id is resident.
	Contains(id grid.BlockID) bool
	// Len returns the number of resident blocks.
	Len() int
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

// front returns the least-recently-used end node, or nil when empty.
func (l *list) front() *node {
	if l.size == 0 {
		return nil
	}
	return l.head.next
}

// scan iterates nodes from the eviction end and returns the first whose id
// satisfies allowed.
func (l *list) scan(allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
	for n := l.head.next; n != l.tail; n = n.next {
		if allowed(n.id) {
			return n.id, true
		}
	}
	return 0, false
}

// FIFO evicts blocks in insertion order; hits do not change the order.
type FIFO struct {
	order *list
	nodes map[grid.BlockID]*node
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO {
	return &FIFO{order: newList(), nodes: make(map[grid.BlockID]*node)}
}

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

// Insert implements Policy.
func (f *FIFO) Insert(id grid.BlockID) {
	if _, ok := f.nodes[id]; ok {
		return // FIFO position is fixed at first insertion
	}
	n := f.order.get(id)
	f.nodes[id] = n
	f.order.pushBack(n)
}

// Touch implements Policy; FIFO ignores hits.
func (f *FIFO) Touch(grid.BlockID) {}

// Remove implements Policy.
func (f *FIFO) Remove(id grid.BlockID) {
	n, ok := f.nodes[id]
	if !ok {
		return
	}
	f.order.remove(n)
	f.order.put(n)
	delete(f.nodes, id)
}

// Victim implements Policy.
func (f *FIFO) Victim() (grid.BlockID, bool) {
	n := f.order.front()
	if n == nil {
		return 0, false
	}
	return n.id, true
}

// VictimWhere implements Policy.
func (f *FIFO) VictimWhere(allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
	return f.order.scan(allowed)
}

// Contains implements Policy.
func (f *FIFO) Contains(id grid.BlockID) bool { _, ok := f.nodes[id]; return ok }

// Len implements Policy.
func (f *FIFO) Len() int { return f.order.size }

// LRU evicts the least recently used block; both Insert and Touch move a
// block to the most-recently-used position.
type LRU struct {
	order *list
	nodes map[grid.BlockID]*node
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{order: newList(), nodes: make(map[grid.BlockID]*node)}
}

// Name implements Policy.
func (*LRU) Name() string { return "LRU" }

// Insert implements Policy.
func (l *LRU) Insert(id grid.BlockID) {
	if n, ok := l.nodes[id]; ok {
		l.order.remove(n)
		l.order.pushBack(n)
		return
	}
	n := l.order.get(id)
	l.nodes[id] = n
	l.order.pushBack(n)
}

// Touch implements Policy.
func (l *LRU) Touch(id grid.BlockID) {
	if n, ok := l.nodes[id]; ok {
		l.order.remove(n)
		l.order.pushBack(n)
	}
}

// Remove implements Policy.
func (l *LRU) Remove(id grid.BlockID) {
	n, ok := l.nodes[id]
	if !ok {
		return
	}
	l.order.remove(n)
	l.order.put(n)
	delete(l.nodes, id)
}

// Victim implements Policy.
func (l *LRU) Victim() (grid.BlockID, bool) {
	n := l.order.front()
	if n == nil {
		return 0, false
	}
	return n.id, true
}

// VictimWhere implements Policy.
func (l *LRU) VictimWhere(allowed func(grid.BlockID) bool) (grid.BlockID, bool) {
	return l.order.scan(allowed)
}

// Contains implements Policy.
func (l *LRU) Contains(id grid.BlockID) bool { _, ok := l.nodes[id]; return ok }

// Len implements Policy.
func (l *LRU) Len() int { return l.order.size }
