package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func id(i int) grid.BlockID { return grid.BlockID(i) }

// incoming is the block the tests make room for: one no test inserts.
const incoming grid.BlockID = 1 << 20

// allPolicies returns a fresh instance of every policy for generic tests.
// Belady gets a trace that never recurs so it behaves like "evict anything".
func allPolicies() []Policy {
	return []Policy{NewFIFO(), NewLRU(), NewARC(), NewBelady(nil)}
}

// victim is the policy's unfiltered choice.
func victim(p Policy) grid.BlockID {
	v, _ := p.Victim(incoming, Filter{})
	return v
}

// drain evicts every block the policy holds, in the order it names them.
func drain(t *testing.T, p Policy) []grid.BlockID {
	t.Helper()
	var out []grid.BlockID
	for {
		v, ok := p.Victim(incoming, Filter{})
		if !ok {
			return out
		}
		if slices.Contains(out, v) {
			t.Fatalf("%s named %d twice: %v", p.Name(), v, out)
		}
		out = append(out, v)
		p.Remove(v)
	}
}

func sorted(ids []grid.BlockID) []grid.BlockID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

func TestGenericEmptyVictim(t *testing.T) {
	for _, p := range allPolicies() {
		if _, ok := p.Victim(incoming, Filter{}); ok {
			t.Errorf("%s: Victim on empty policy returned ok", p.Name())
		}
		if _, ok := p.Victim(incoming, Filter{Allow: func(grid.BlockID) bool { return true }}); ok {
			t.Errorf("%s: filtered Victim on empty policy returned ok", p.Name())
		}
	}
}

func TestGenericInsertRemoveContains(t *testing.T) {
	for _, p := range allPolicies() {
		p.Insert(id(1))
		p.Insert(id(2))
		p.Insert(id(3))
		p.Remove(id(2))
		// Removing or touching a non-resident block is a no-op.
		p.Remove(id(99))
		p.Touch(id(99))
		if got := sorted(drain(t, p)); !slices.Equal(got, []grid.BlockID{1, 3}) {
			t.Errorf("%s: holds %v, want [1 3]", p.Name(), got)
		}
	}
}

func TestGenericVictimIsResident(t *testing.T) {
	want := []grid.BlockID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, p := range allPolicies() {
		for _, b := range want {
			p.Insert(b)
		}
		p.Touch(id(3))
		p.Touch(id(7))
		if got := sorted(drain(t, p)); !slices.Equal(got, want) {
			t.Errorf("%s: victims %v, want each of %v once", p.Name(), got, want)
		}
	}
}

func TestGenericVictimWhereRespectsFilter(t *testing.T) {
	for _, p := range allPolicies() {
		for i := 0; i < 10; i++ {
			p.Insert(id(i))
		}
		v, ok := p.Victim(incoming, Filter{Allow: func(b grid.BlockID) bool { return b >= 5 }})
		if !ok || v < 5 {
			t.Errorf("%s: filtered Victim = %d, %v; want an allowed block", p.Name(), v, ok)
		}
		if _, ok := p.Victim(incoming, Filter{Allow: func(grid.BlockID) bool { return false }}); ok {
			t.Errorf("%s: Victim with nothing allowed returned ok", p.Name())
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO()
	f.Insert(id(1))
	f.Insert(id(2))
	f.Insert(id(3))
	// Hits must not affect FIFO order.
	f.Touch(id(1))
	f.Touch(id(1))
	if v := victim(f); v != id(1) {
		t.Errorf("victim = %d, want 1", v)
	}
	// Re-inserting an existing block keeps its position.
	f.Insert(id(1))
	if v := victim(f); v != id(1) {
		t.Errorf("victim after reinsert = %d, want 1", v)
	}
	f.Remove(id(1))
	if v := victim(f); v != id(2) {
		t.Errorf("next victim = %d, want 2", v)
	}
}

func TestLRUOrder(t *testing.T) {
	l := NewLRU()
	l.Insert(id(1))
	l.Insert(id(2))
	l.Insert(id(3))
	l.Touch(id(1)) // order now: 2, 3, 1
	if v := victim(l); v != id(2) {
		t.Errorf("victim = %d, want 2", v)
	}
	l.Insert(id(2)) // reinsert refreshes recency: 3, 1, 2
	if v := victim(l); v != id(3) {
		t.Errorf("victim = %d, want 3", v)
	}
}

func TestLRUVictimWhereSkipsRecent(t *testing.T) {
	l := NewLRU()
	for i := 1; i <= 4; i++ {
		l.Insert(id(i))
	}
	// Eviction order 1,2,3,4. Disallow 1 and 2 → victim must be 3.
	v, ok := l.Victim(incoming, Filter{Allow: func(b grid.BlockID) bool { return b >= 3 }})
	if !ok || v != id(3) {
		t.Errorf("filtered Victim = %d,%v, want 3", v, ok)
	}
}

// arcLevel is an ARC on a level of c unit-sized blocks, and the admission
// of one block into it.
func arcLevel(c int64) (*ARC, func(grid.BlockID)) {
	a := NewARC()
	l := NewLevel(c, a)
	return a, func(b grid.BlockID) { l.Admit(b, Entry{Size: 1}) }
}

func TestARCPromotionToT2(t *testing.T) {
	a := NewARC()
	a.Insert(id(1))
	a.Insert(id(2))
	// A hit moves 1 into T2; T1's LRU is now 2.
	a.Touch(id(1))
	if v, ok := a.Victim(id(3), Filter{}); !ok || v != id(2) {
		t.Errorf("victim = %d,%v, want 2 from T1", v, ok)
	}
}

func TestARCGhostHitAdaptsP(t *testing.T) {
	a, admit := arcLevel(2)
	admit(1)
	admit(2)
	admit(2) // T1 = [1], T2 = [2]
	admit(3) // REPLACE: T1 is over p = 0, so 1 becomes a B1 ghost
	if a.on(1) != a.b1 {
		t.Fatal("the T1 victim is not a B1 ghost")
	}
	p0 := a.p
	admit(1) // ghost hit in B1 raises p, before REPLACE
	if a.p <= p0 {
		t.Errorf("p = %d, want > %d after a B1 ghost hit", a.p, p0)
	}
	if a.on(1) != a.t2 {
		t.Error("re-admitted ghost is not in T2")
	}
}

func TestARCB2GhostHitDecreasesP(t *testing.T) {
	a, admit := arcLevel(2)
	admit(1)
	admit(1) // T2 = [1]
	admit(2) // T1 = [2]
	admit(3) // 2 → B1
	admit(2) // B1 hit: p 0 → 1, and REPLACE sends 1 to B2
	if a.on(1) != a.b2 {
		t.Fatal("the T2 victim is not a B2 ghost")
	}
	p0 := a.p
	admit(1) // B2 ghost hit: p down
	if a.p >= p0 {
		t.Errorf("p = %d, want < %d after a B2 ghost hit", a.p, p0)
	}
}

// TestARCGhostTrimming: the directory keeps Fig. 4's bounds, |T1|+|B1| ≤ c
// and |T1|+|T2|+|B1|+|B2| ≤ 2c, through any run of admissions.
func TestARCGhostTrimming(t *testing.T) {
	for _, c := range []int64{1, 2, 5} {
		a, admit := arcLevel(c)
		for i, x := 0, uint32(7); i < 2000; i++ {
			x = x*1664525 + 1013904223
			admit(grid.BlockID(x>>16) % grid.BlockID(4*c+3))
			l1 := a.t1.size + a.b1.size
			dir := 0
			for b := range a.dir {
				if a.on(grid.BlockID(b)) != nil {
					dir++
				}
			}
			if l1 > int(c) || l1+a.t2.size+a.b2.size > 2*int(c) || dir != l1+a.t2.size+a.b2.size {
				t.Fatalf("c %d, access %d: |T1|+|B1| = %d, directory %d (entries %d)",
					c, i, l1, l1+a.t2.size+a.b2.size, dir)
			}
		}
	}
}

// An invalidated block leaves ARC's directory; only a victim becomes a ghost.
func TestARCRemoveOfANonVictimLeavesNoGhost(t *testing.T) {
	a := NewARC()
	a.Insert(id(1))
	a.Insert(id(2))
	a.Remove(id(1))
	if a.on(1) != nil {
		t.Error("a removed block that was not the victim left a ghost")
	}
}

func TestBeladyEvictsFarthest(t *testing.T) {
	trace := []grid.BlockID{1, 2, 3, 1, 2, 1}
	b := NewBelady(trace)
	b.Insert(id(1))
	b.Insert(id(2))
	b.Insert(id(3))
	b.SetStep(3) // about to process trace[3] = 1; next uses: 1→3, 2→4, 3→never
	if v := victim(b); v != id(3) {
		t.Errorf("victim = %d, want 3 (never used again)", v)
	}
	b.Remove(id(3))
	if v := victim(b); v != id(2) {
		t.Errorf("victim = %d, want 2 (used later than 1)", v)
	}
}

func TestBeladyTieBreakDeterministic(t *testing.T) {
	b := NewBelady([]grid.BlockID{})
	b.Insert(id(7))
	b.Insert(id(3))
	// Neither recurs: smallest ID wins the tie.
	if v := victim(b); v != id(3) {
		t.Errorf("victim = %d, want 3", v)
	}
}

func TestBeladyOptimalOnSmallTrace(t *testing.T) {
	// Classic example where OPT beats LRU: cyclic access 1,2,3,1,2,3...
	// with capacity 2. OPT misses less than LRU (which misses every time).
	trace := []grid.BlockID{1, 2, 3, 1, 2, 3, 1, 2, 3}
	missesFor := func(p Policy) int {
		l := NewLevel(2, p)
		misses := 0
		for i, b := range trace {
			if sa, ok := p.(StepAware); ok {
				sa.SetStep(i)
			}
			if !l.Touch(b) {
				misses++
				l.Admit(b, Entry{Size: 1})
			}
		}
		return misses
	}
	lruMisses := missesFor(NewLRU())
	optMisses := missesFor(NewBelady(trace))
	if optMisses >= lruMisses {
		t.Errorf("OPT misses %d >= LRU misses %d", optMisses, lruMisses)
	}
	if lruMisses != 9 {
		t.Errorf("LRU on cyclic trace = %d misses, want 9 (thrashing)", lruMisses)
	}
}

// Property: for every policy, after any operation sequence the policy names
// exactly the inserted-and-not-removed blocks as victims, and a victim is
// always one of them.
func TestPolicyStateConsistencyProperty(t *testing.T) {
	type opcode struct {
		Op uint8
		ID uint8
	}
	factories := []Factory{
		func() Policy { return NewFIFO() },
		func() Policy { return NewLRU() },
		func() Policy { return NewARC() },
		func() Policy { return NewBelady(nil) },
	}
	for _, mk := range factories {
		f := func(ops []opcode) bool {
			p := mk()
			ref := map[grid.BlockID]bool{}
			for _, o := range ops {
				b := grid.BlockID(o.ID % 16)
				switch o.Op % 4 {
				case 0:
					p.Insert(b)
					ref[b] = true
				case 1:
					p.Touch(b)
				case 2:
					p.Remove(b)
					delete(ref, b)
				case 3:
					v, ok := p.Victim(b+16, Filter{})
					if ok != (len(ref) > 0) || ok && !ref[v] {
						return false
					}
					if ok {
						p.Remove(v)
						delete(ref, v)
					}
				}
			}
			got := drain(t, p)
			if len(got) != len(ref) {
				return false
			}
			for _, v := range got {
				if !ref[v] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", mk().Name(), err)
		}
	}
}

// TestVictimCursorFollowsTheFilter alternates two installed filters through
// direct Victim calls. Each must name its own first allowed block every time:
// a cursor the one filter left past blocks the other accepts is not resumed.
func TestVictimCursorFollowsTheFilter(t *testing.T) {
	late := Filter{Allow: func(b grid.BlockID) bool { return b >= 6 }, gen: 1}
	early := Filter{Allow: func(b grid.BlockID) bool { return b < 2 || b >= 6 }, gen: 2}
	for _, p := range []Policy{NewFIFO(), NewLRU(), NewARC()} {
		for i := range 8 {
			p.Insert(id(i))
		}
		for round := range 3 {
			if v, ok := p.Victim(incoming, late); !ok || v != 6 {
				t.Errorf("%s, round %d: late filter named %d, %v; want 6", p.Name(), round, v, ok)
			}
			if v, ok := p.Victim(incoming, early); !ok || v != 0 {
				t.Errorf("%s, round %d: early filter named %d, %v; want 0", p.Name(), round, v, ok)
			}
		}
		// The same filter again after a removal resumes where it stopped.
		p.Remove(id(6))
		if v, ok := p.Victim(incoming, late); !ok || v != 7 {
			t.Errorf("%s: late filter after removing 6 named %d, %v; want 7", p.Name(), v, ok)
		}
	}
}
