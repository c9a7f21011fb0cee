// Package summary implements per-block value summaries and query-driven
// block selection — the "query-based visualization" data-dependent
// operation of the paper's §III-A (related work [3], Glatter et al.).
// A one-time pre-processing pass records each block's min/max/mean per
// variable; at runtime, range queries ("blocks where 0.3 < mixfrac < 0.5
// AND wind > 0.1") are answered from the summaries without touching voxel
// data, and the resulting block sets restrict what the policy must keep
// resident.
package summary

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/grid"
	"repro/internal/volume"
)

// BlockSummary is one block's value summary for one variable.
type BlockSummary struct {
	Min, Max, Mean float32
}

// Table holds per-block summaries for a set of variables.
type Table struct {
	variables []int
	index     map[int]int // variable -> row
	rows      [][]BlockSummary
}

// samplesPerAxis bounds each block's sampling: at most 8 values per axis.
const samplesPerAxis = 8

// Build computes summaries for the given variables (all when vars is nil),
// on GOMAXPROCS workers.
func Build(ds *volume.Dataset, g *grid.Grid, vars []int) (*Table, error) {
	if len(vars) == 0 {
		vars = make([]int, ds.Variables)
		for i := range vars {
			vars[i] = i
		}
	}
	for _, v := range vars {
		if v < 0 || v >= ds.Variables {
			return nil, fmt.Errorf("summary: variable %d out of [0,%d)", v, ds.Variables)
		}
	}
	t := &Table{
		variables: append([]int(nil), vars...),
		index:     make(map[int]int, len(vars)),
		rows:      make([][]BlockSummary, len(vars)),
	}
	for i, v := range vars {
		t.index[v] = i
		t.rows[i] = make([]BlockSummary, g.NumBlocks())
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				for i, v := range t.variables {
					vals := ds.BlockSamples(g, grid.BlockID(b), v, samplesPerAxis)
					t.rows[i][b] = summarize(vals)
				}
			}
		}()
	}
	for b := 0; b < g.NumBlocks(); b++ {
		work <- b
	}
	close(work)
	wg.Wait()
	return t, nil
}

func summarize(vals []float32) BlockSummary {
	if len(vals) == 0 {
		return BlockSummary{}
	}
	s := BlockSummary{Min: vals[0], Max: vals[0]}
	var sum float64
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += float64(v)
	}
	s.Mean = float32(sum / float64(len(vals)))
	return s
}

// summary returns the summary of one block/variable. It panics when the
// variable was not summarized (a programming error).
func (t *Table) summary(id grid.BlockID, variable int) BlockSummary {
	row, ok := t.index[variable]
	if !ok {
		panic(fmt.Sprintf("summary: variable %d not summarized", variable))
	}
	return t.rows[row][id]
}

// Predicate is one range condition on one variable.
type Predicate struct {
	Variable int
	// Min, Max bound the values of interest (inclusive).
	Min, Max float32
}

// Query is a conjunction of predicates.
type Query []Predicate

// MayMatch reports whether the block could contain values satisfying every
// predicate, judged from its summaries — conservative: false positives are
// possible (the block's range overlaps but no single voxel qualifies),
// false negatives are not.
func (t *Table) MayMatch(id grid.BlockID, q Query) (bool, error) {
	for _, p := range q {
		row, ok := t.index[p.Variable]
		if !ok {
			return false, fmt.Errorf("summary: variable %d not summarized", p.Variable)
		}
		s := t.rows[row][id]
		if s.Max < p.Min || s.Min > p.Max {
			return false, nil
		}
	}
	return true, nil
}

// Filter returns the subset of ids that may match the query, preserving
// input order — the composition used at render time: the visible set
// intersected with the active query.
func (t *Table) Filter(ids []grid.BlockID, q Query) ([]grid.BlockID, error) {
	out := make([]grid.BlockID, 0, len(ids))
	for _, id := range ids {
		ok, err := t.MayMatch(id, q)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, id)
		}
	}
	return out, nil
}
