package summary

import (
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/volume"
)

func ballTable(t *testing.T) (*volume.Dataset, *grid.Grid, *Table) {
	t.Helper()
	ds := volume.Ball().Scale(1.0 / 16) // 64³
	g, err := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(ds, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds, g, tab
}

func TestBuildValidation(t *testing.T) {
	ds := volume.Ball().Scale(1.0 / 32)
	g, _ := ds.Grid(grid.Dims{X: 8, Y: 8, Z: 8})
	if _, err := Build(ds, g, []int{3}); err == nil {
		t.Error("bad variable accepted")
	}
}

func TestSummariesConsistent(t *testing.T) {
	_, g, tab := ballTable(t)
	if len(tab.rows[0]) != g.NumBlocks() {
		t.Fatalf("blocks = %d", len(tab.rows[0]))
	}
	for _, id := range g.All() {
		s := tab.summary(id, 0)
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Fatalf("block %d: min %g mean %g max %g", id, s.Min, s.Mean, s.Max)
		}
	}
	// The center block contains the peak intensity ~1.
	per := g.BlocksPerAxis()
	center := g.ID(per.X/2, per.Y/2, per.Z/2)
	if s := tab.summary(center, 0); s.Max < 0.8 {
		t.Errorf("center max = %g, want near 1", s.Max)
	}
	// Far corner blocks are entirely ambient 0.
	if s := tab.summary(g.ID(0, 0, 0), 0); s.Max != 0 {
		t.Errorf("corner max = %g, want 0", s.Max)
	}
}

func TestSummaryPanicsOnUnknownVariable(t *testing.T) {
	_, _, tab := ballTable(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown variable did not panic")
		}
	}()
	tab.summary(0, 7)
}

func TestSelectHighValueQuery(t *testing.T) {
	_, g, tab := ballTable(t)
	// Blocks that may contain values above 0.5: the ball interior only.
	sel, err := tab.Filter(g.All(), Query{{Variable: 0, Min: 0.5, Max: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) >= g.NumBlocks() {
		t.Fatalf("selected %d of %d", len(sel), g.NumBlocks())
	}
	// The selection excludes ambient corners and includes the center.
	per := g.BlocksPerAxis()
	center := g.ID(per.X/2, per.Y/2, per.Z/2)
	foundCenter := false
	for _, id := range sel {
		if id == g.ID(0, 0, 0) {
			t.Error("ambient corner selected")
		}
		if id == center {
			foundCenter = true
		}
	}
	if !foundCenter {
		t.Error("center block not selected")
	}
}

func TestConjunctionNarrows(t *testing.T) {
	ds := volume.Climate().Scale(0.2).WithVariables(3)
	g, err := ds.GridWithBlockCount(64)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Build(ds, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	smoky, err := tab.Filter(g.All(), Query{{Variable: 0, Min: 0.3, Max: 10}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := tab.Filter(g.All(), Query{
		{Variable: 0, Min: 0.3, Max: 10},
		{Variable: 1, Min: 0.3, Max: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(both) > len(smoky) {
		t.Errorf("conjunction %d > single predicate %d", len(both), len(smoky))
	}
	if len(smoky) == 0 {
		t.Error("smoke query selected nothing")
	}
}

func TestQueryIsConservative(t *testing.T) {
	// No false negatives: every block containing a qualifying sample must
	// be selected.
	ds, g, tab := ballTable(t)
	q := Query{{Variable: 0, Min: 0.7, Max: 1.1}}
	sel, err := tab.Filter(g.All(), q)
	if err != nil {
		t.Fatal(err)
	}
	selected := make(map[grid.BlockID]bool, len(sel))
	for _, id := range sel {
		selected[id] = true
	}
	for _, id := range g.All() {
		vals := ds.BlockSamples(g, id, 0, 8)
		for _, v := range vals {
			if v >= 0.7 && v <= 1.1 && !selected[id] {
				t.Fatalf("block %d has qualifying value %g but was not selected", id, v)
			}
		}
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	_, g, tab := ballTable(t)
	ids := []grid.BlockID{5, 1, 200, 100}
	got, err := tab.Filter(ids, Query{{Variable: 0, Min: -1, Max: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("all-pass filter dropped blocks: %v", got)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatal("order not preserved")
		}
	}
	// Impossible query filters everything.
	none, err := tab.Filter(g.All(), Query{{Variable: 0, Min: 5, Max: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("impossible query kept %d blocks", len(none))
	}
}

func TestUnknownVariableInQuery(t *testing.T) {
	_, _, tab := ballTable(t)
	if _, err := tab.Filter([]grid.BlockID{0}, Query{{Variable: 9}}); err == nil {
		t.Error("unknown variable accepted in Filter")
	}
}

// Property: for random range queries, Filter keeps exactly the blocks whose
// summary range intersects the query.
func TestQueryConservativeProperty(t *testing.T) {
	_, g, tab := ballTable(t)
	f := func(a, b uint8) bool {
		lo := float32(a) / 255
		hi := lo + float32(b)/255
		q := Query{{Variable: 0, Min: lo, Max: hi}}
		sel, err := tab.Filter(g.All(), q)
		if err != nil {
			return false
		}
		selected := make(map[grid.BlockID]bool, len(sel))
		for _, id := range sel {
			selected[id] = true
		}
		for _, id := range g.All() {
			s := tab.summary(id, 0)
			intersects := !(s.Max < lo || s.Min > hi)
			if intersects && !selected[id] {
				return false
			}
			if !intersects && selected[id] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEmptyQueryMatchesAll(t *testing.T) {
	_, g, tab := ballTable(t)
	sel, err := tab.Filter(g.All(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != g.NumBlocks() {
		t.Errorf("empty query selected %d of %d", len(sel), g.NumBlocks())
	}
}
