package visibility

// The flat scans the kernel replaced, kept as its oracle: the per-block
// predicates applied to every block in id order, as VisibleSet,
// DilatedVisibleSet and VicinalUnion were written before the kernel.

import (
	"sort"

	"repro/internal/grid"
	"repro/internal/vec"
)

func flatVisibleSet(g *grid.Grid, pos vec.V3, theta float64) []grid.BlockID {
	out := []grid.BlockID{}
	for i := 0; i < g.NumBlocks(); i++ {
		if BlockVisible(pos, theta, g, grid.BlockID(i)) {
			out = append(out, grid.BlockID(i))
		}
	}
	return out
}

func flatDilatedVisibleSet(g *grid.Grid, pos vec.V3, theta, r float64) []grid.BlockID {
	out := []grid.BlockID{}
	for i := 0; i < g.NumBlocks(); i++ {
		if DilatedVisible(pos, theta, r, g, grid.BlockID(i)) {
			out = append(out, grid.BlockID(i))
		}
	}
	return out
}

func flatVicinalUnion(g *grid.Grid, pos vec.V3, theta, r float64, samples int) []grid.BlockID {
	seen := make(map[grid.BlockID]struct{})
	add := func(p vec.V3) {
		for i := 0; i < g.NumBlocks(); i++ {
			if BlockVisible(p, theta, g, grid.BlockID(i)) {
				seen[grid.BlockID(i)] = struct{}{}
			}
		}
	}
	add(pos)
	for _, p := range fibonacciBall(pos, r, samples) {
		add(p)
	}
	out := make([]grid.BlockID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// flatComputeSet is Table.computeSet over the flat scans, with the clamp as
// it was first written (reflective sorts over a copy).
func flatComputeSet(t *Table, i int) []grid.BlockID {
	pos := t.KeyPos(i)
	r := t.opts.Radius.Radius(t.opts.ViewAngle, pos.Norm())
	var set []grid.BlockID
	if t.opts.VicinalSamples > 0 {
		set = flatVicinalUnion(t.g, pos, t.opts.ViewAngle, r, t.opts.VicinalSamples)
	} else {
		set = flatDilatedVisibleSet(t.g, pos, t.opts.ViewAngle, r)
	}
	if c := t.opts.Clamp; c != nil && c.MaxBlocks > 0 && len(set) > c.MaxBlocks {
		sort.SliceStable(set, func(a, b int) bool {
			sa, sb := c.Importance.Score(set[a]), c.Importance.Score(set[b])
			if sa != sb {
				return sa > sb
			}
			return set[a] < set[b]
		})
		set = set[:c.MaxBlocks]
		sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
	}
	return set
}
