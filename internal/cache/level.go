package cache

import "repro/internal/grid"

// Entry is what a Level holds for one resident block: its size in the
// level's byte budget and, for a level that keeps the data itself (the DRAM
// cache), the decoded voxels. Levels that only account — a simulated device,
// an index over spill files — leave Vals nil.
type Entry struct {
	Size int64
	Vals []float32
}

// slot is a Level's per-block state: the entry, when ok.
type slot struct {
	Entry
	ok bool
}

// Level is one capacity-bounded level of a storage hierarchy: which blocks
// are resident, how many bytes they take, and — the decision the paper is
// about — which of them leave when another must come in. It is the only code
// that asks a Policy for victims on a level's behalf; the simulator's levels
// (memhier), the DRAM cache (store.MemCache), the spill tier's index
// (tier.Tier) and trace.Replay each hold one, so an admit-and-evict sequence
// is the same in all of them by construction.
//
// A Level moves no bytes and takes no locks; its host serializes calls and
// does the I/O around them. Like its Policy it keeps per-block state in a
// slice indexed by block ID, grown only by Add: an ID past its end, or below
// zero, is simply not resident.
type Level struct {
	// Capacity is the byte budget. Policy orders the victims; it must be
	// empty when the level is built and is owned by the level afterwards.
	Capacity int64
	Policy   Policy
	// Evictions counts blocks the level pushed out (MakeRoom, Admit,
	// EvictWhere); Remove does not count. Hosts may reset it.
	Evictions int64
	// OnEvict, when non-nil, sees every evicted block with its entry; the
	// entry's Vals are the host's to reuse only once the hook has returned.
	OnEvict func(id grid.BlockID, e Entry)

	resident []slot // by block ID
	n        int    // resident blocks
	used     int64
	filter   Filter
	filters  uint64 // filters installed so far; the last one's generation
	strict   bool
}

// NewLevel returns an empty level.
func NewLevel(capacity int64, p Policy) *Level {
	return &Level{Capacity: capacity, Policy: p}
}

// Used returns the bytes currently resident.
func (l *Level) Used() int64 { return l.used }

// Len returns the number of resident blocks.
func (l *Level) Len() int { return l.n }

// Contains reports whether the block is resident, without touching it.
func (l *Level) Contains(id grid.BlockID) bool {
	_, ok := l.Peek(id)
	return ok
}

// Peek returns the block's entry without counting a use.
func (l *Level) Peek(id grid.BlockID) (Entry, bool) {
	if uint(id) < uint(len(l.resident)) {
		s := &l.resident[id]
		return s.Entry, s.ok
	}
	return Entry{}, false
}

// Get returns the block's entry and, when it is resident, records the use
// with the policy.
func (l *Level) Get(id grid.BlockID) (Entry, bool) {
	e, ok := l.Peek(id)
	if ok {
		l.Policy.Touch(id)
	}
	return e, ok
}

// Touch is Get for a host that keeps no data in the level: it reports whether
// the block is resident and, if so, records the use.
func (l *Level) Touch(id grid.BlockID) bool {
	_, ok := l.Get(id)
	return ok
}

// Fits reports whether size more bytes fit without evicting anything.
func (l *Level) Fits(size int64) bool { return l.used+size <= l.Capacity }

// SetEvictFilter restricts victims to blocks satisfying allowed (nil clears
// the filter). When no resident block qualifies, a non-strict level falls
// back to the policy's unrestricted victim so the admission always makes
// progress; a strict level stops evicting and the admission fails —
// speculative prefetches must never displace protected blocks.
//
// allowed's verdict on a block must not change while it is installed: the
// policy skips the blocks it has refused once, for every victim until the
// next SetEvictFilter. Algorithm 1's rules on time[] keep this, since a
// block's last use moves only when a frame begins, before its filters are
// set.
func (l *Level) SetEvictFilter(allowed func(grid.BlockID) bool, strict bool) {
	l.filter = Filter{}
	if allowed != nil {
		l.filters++
		l.filter = Filter{Allow: allowed, gen: l.filters}
	}
	l.strict = strict && allowed != nil
}

// MakeRoom evicts until size more bytes fit for the incoming block and
// reports whether they do; every victim is the policy's choice for incoming.
// A size above Capacity evicts nothing. When it stops early — a strict
// filter with no allowed victim left, or a policy with nothing to offer —
// the victims already taken stay evicted.
func (l *Level) MakeRoom(incoming grid.BlockID, size int64) bool {
	if size > l.Capacity {
		return false
	}
	for !l.Fits(size) {
		victim, ok := l.Policy.Victim(incoming, l.filter)
		if !ok && l.filter.Allow != nil && !l.strict {
			victim, ok = l.Policy.Victim(incoming, Filter{})
		}
		if !ok {
			return false
		}
		l.evict(victim)
	}
	return true
}

// Add records the block as resident. The caller has made room and knows the
// block is absent; the spill tier writes its file between the two steps.
func (l *Level) Add(id grid.BlockID, e Entry) {
	l.resident = grow(l.resident, id)
	l.resident[id] = slot{e, true}
	l.n++
	l.used += e.Size
	l.Policy.Insert(id)
}

// Admit makes the block resident, evicting as needed, and reports whether it
// is resident afterwards. Admitting a resident block is a touch; a block
// that cannot be given room is not admitted (the caller already has the
// data; there is simply nowhere to keep it).
func (l *Level) Admit(id grid.BlockID, e Entry) bool {
	if l.Touch(id) {
		return true
	}
	if !l.MakeRoom(id, e.Size) {
		return false
	}
	l.Add(id, e)
	return true
}

// evict pushes the block out: counted, and shown to OnEvict. A no-op for a
// block that is not resident.
func (l *Level) evict(id grid.BlockID) {
	if e, ok := l.Remove(id); ok {
		l.Evictions++
		if l.OnEvict != nil {
			l.OnEvict(id, e)
		}
	}
}

// EvictWhere evicts every resident block pred selects, in ascending ID
// order, and returns how many.
func (l *Level) EvictWhere(pred func(grid.BlockID) bool) int {
	n := 0
	for i := range l.resident {
		if id := grid.BlockID(i); l.resident[i].ok && pred(id) {
			l.evict(id)
			n++
		}
	}
	return n
}

// Remove forgets the block without counting an eviction or calling OnEvict —
// the entry turned out to be unusable (a corrupt spill file), it was not
// chosen to leave.
func (l *Level) Remove(id grid.BlockID) (Entry, bool) {
	e, ok := l.Peek(id)
	if ok {
		l.Policy.Remove(id)
		l.resident[id] = slot{}
		l.n--
		l.used -= e.Size
	}
	return e, ok
}
