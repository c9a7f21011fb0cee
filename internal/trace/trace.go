// Package trace captures and replays block request streams. A trace is the
// per-view-point sequence of visible-block requests produced by a camera
// path; replaying it against different replacement policies (including
// Belady's offline OPT, which requires the full future) isolates
// replacement-policy quality from visibility computation.
package trace

import (
	"repro/internal/cache"
	"repro/internal/grid"
)

// Trace is a sequence of view-point request groups: Requests[i] holds the
// block IDs requested at view point i, in request order.
type Trace struct {
	Requests [][]grid.BlockID
}

// Append adds one view point's requests.
func (t *Trace) Append(ids []grid.BlockID) {
	cp := append([]grid.BlockID(nil), ids...)
	t.Requests = append(t.Requests, cp)
}

// steps returns the number of view points.
func (t *Trace) steps() int { return len(t.Requests) }

// Flatten returns all requests in order as one sequence, the form Belady's
// policy consumes.
func (t *Trace) Flatten() []grid.BlockID {
	var out []grid.BlockID
	for _, g := range t.Requests {
		out = append(out, g...)
	}
	return out
}

// TotalRequests returns the total number of block requests.
func (t *Trace) TotalRequests() int {
	n := 0
	for _, g := range t.Requests {
		n += len(g)
	}
	return n
}

// uniqueBlocks returns the number of distinct blocks requested.
func (t *Trace) uniqueBlocks() int {
	seen := make(map[grid.BlockID]struct{})
	for _, g := range t.Requests {
		for _, id := range g {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}

// ReplayResult summarizes a trace replay against a single-level cache.
type ReplayResult struct {
	Policy   string
	Hits     int
	Misses   int
	Capacity int
}

// MissRate returns misses / total requests (0 when empty).
func (r ReplayResult) MissRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Misses) / float64(total)
}

// Replay runs the trace against a single cache of the given capacity (in
// blocks) under the policy: a cache.Level of unit-sized blocks. Belady-style
// policies get SetStep calls with the flattened request index. The policy
// must be empty.
func Replay(t *Trace, p cache.Policy, capacity int) ReplayResult {
	res := ReplayResult{Policy: p.Name(), Capacity: capacity}
	if capacity < 1 {
		return res
	}
	lvl := cache.NewLevel(int64(capacity), p)
	sa, stepAware := p.(cache.StepAware)
	pos := 0
	for _, group := range t.Requests {
		for _, id := range group {
			if stepAware {
				sa.SetStep(pos)
			}
			pos++
			if lvl.Touch(id) {
				res.Hits++
				continue
			}
			res.Misses++
			lvl.Admit(id, cache.Entry{Size: 1})
		}
	}
	return res
}
