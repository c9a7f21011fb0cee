package visibility

// The flat scans the kernel replaced, kept as its oracle: the per-block
// predicates applied to every block in id order, as VisibleSet,
// dilatedVisibleSet and vicinalUnion were written before the kernel.

import (
	"sort"

	"repro/internal/grid"
	"repro/internal/vec"
)

func flatVisibleSet(g *grid.Grid, pos vec.V3, theta float64) []grid.BlockID {
	out := []grid.BlockID{}
	for i := 0; i < g.NumBlocks(); i++ {
		if blockVisible(pos, theta, g, grid.BlockID(i)) {
			out = append(out, grid.BlockID(i))
		}
	}
	return out
}

func flatDilatedVisibleSet(g *grid.Grid, pos vec.V3, theta, r float64) []grid.BlockID {
	out := []grid.BlockID{}
	for i := 0; i < g.NumBlocks(); i++ {
		if dilatedVisible(pos, theta, r, g, grid.BlockID(i)) {
			out = append(out, grid.BlockID(i))
		}
	}
	return out
}

func flatVicinalUnion(g *grid.Grid, pos vec.V3, theta, r float64, samples int) []grid.BlockID {
	seen := make(map[grid.BlockID]struct{})
	add := func(p vec.V3) {
		for i := 0; i < g.NumBlocks(); i++ {
			if blockVisible(p, theta, g, grid.BlockID(i)) {
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

// flatKeySet is Table.AppendSet(nil, i) over the flat scan.
func flatKeySet(t *Table, i int) []grid.BlockID {
	pos := t.KeyPos(i)
	r := t.opts.Radius.Radius(t.opts.ViewAngle, pos.Norm())
	return flatDilatedVisibleSet(t.g, pos, t.opts.ViewAngle, r)
}
