package policy

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
)

// evenHot scores even blocks above σ=0.5, odd blocks below it.
func evenHot(id grid.BlockID) float64 {
	if id%2 == 0 {
		return 1
	}
	return 0
}

// victims evicts every block p holds, in the order it names them.
func victims(p cache.Policy) []grid.BlockID {
	var out []grid.BlockID
	for v, ok := p.Victim(-1, cache.Filter{}); ok; v, ok = p.Victim(-1, cache.Filter{}) {
		out = append(out, v)
		p.Remove(v)
	}
	return out
}

func TestImportanceLRUIsAReplacement(t *testing.T) {
	var _ cache.Policy = NewImportanceLRU(evenHot, 0.5)
}

func TestImportanceLRUEvictsColdFirst(t *testing.T) {
	p := NewImportanceLRU(evenHot, 0.5)
	for id := grid.BlockID(0); id < 6; id++ {
		p.Insert(id)
	}
	// Victims must come odd-first (cold class) in LRU order: 1, 3, 5, then
	// the hot class 0, 2, 4.
	if got, want := victims(p), []grid.BlockID{1, 3, 5, 0, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("victims %v, want %v", got, want)
	}
}

func TestImportanceLRUTouchReordersWithinClass(t *testing.T) {
	p := NewImportanceLRU(evenHot, 0.5)
	for _, id := range []grid.BlockID{1, 3, 5} {
		p.Insert(id)
	}
	p.Touch(1)  // 1 becomes most-recently-used cold
	p.Touch(99) // non-resident: no-op
	if got, want := victims(p), []grid.BlockID{3, 5, 1}; !slices.Equal(got, want) {
		t.Fatalf("victims %v, want %v after touching 1 and 99", got, want)
	}
}

func TestImportanceLRUVictimWhere(t *testing.T) {
	p := NewImportanceLRU(evenHot, 0.5)
	for id := grid.BlockID(0); id < 4; id++ {
		p.Insert(id)
	}
	// Only even (hot) blocks allowed: the scan must skip the whole cold
	// class and land on the LRU hot block.
	v, ok := p.Victim(9, cache.Filter{Allow: func(id grid.BlockID) bool { return id%2 == 0 }})
	if !ok || v != 0 {
		t.Fatalf("filtered Victim = %d, %v; want 0", v, ok)
	}
	if _, ok := p.Victim(9, cache.Filter{Allow: func(grid.BlockID) bool { return false }}); ok {
		t.Fatal("no allowed victim must report ok=false")
	}
}

func TestImportanceLRUInsertResidentActsAsTouch(t *testing.T) {
	p := NewImportanceLRU(evenHot, 0.5)
	p.Insert(1)
	p.Insert(3)
	p.Insert(1) // re-insert: must move 1 to MRU, not duplicate
	if got, want := victims(p), []grid.BlockID{3, 1}; !slices.Equal(got, want) {
		t.Fatalf("victims %v, want %v", got, want)
	}
}

// TestImportanceLRUMatchesPlainLRUWhenAllCold pins the degenerate case: with
// every block in one class the policy is exactly LRU, so the LRU baseline
// ablation and the app-aware policy differ only by the importance split.
func TestImportanceLRUMatchesPlainLRUWhenAllCold(t *testing.T) {
	imp := NewImportanceLRU(func(grid.BlockID) float64 { return 0 }, 0.5)
	lru := cache.NewLRU()
	trace := []grid.BlockID{1, 2, 3, 1, 4, 2, 5, 5, 1}
	for _, id := range trace {
		imp.Insert(id)
		lru.Insert(id)
	}
	if a, b := victims(imp), victims(lru); !slices.Equal(a, b) || len(a) != 5 {
		t.Fatalf("victim order diverges: %v vs %v", a, b)
	}
}
