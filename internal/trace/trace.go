// Package trace captures and replays block request streams. A trace is the
// per-view-point sequence of visible-block requests produced by a camera
// path; replaying it against different replacement policies (including
// Belady's offline OPT, which requires the full future) isolates
// replacement-policy quality from visibility computation.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

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

// Steps returns the number of view points.
func (t *Trace) Steps() int { return len(t.Requests) }

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

// UniqueBlocks returns the number of distinct blocks requested.
func (t *Trace) UniqueBlocks() int {
	seen := make(map[grid.BlockID]struct{})
	for _, g := range t.Requests {
		for _, id := range g {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}

// Write serializes the trace as text: one line per view point with
// space-separated block IDs (empty line for an empty view point).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, group := range t.Requests {
		for i, id := range group {
			if i > 0 {
				if _, err := bw.WriteString(" "); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(id))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			t.Requests = append(t.Requests, nil)
			continue
		}
		fields := strings.Fields(text)
		group := make([]grid.BlockID, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", line, err)
			}
			group = append(group, grid.BlockID(v))
		}
		t.Requests = append(t.Requests, group)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
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

// ReplayAll replays the trace against a fresh cache per factory and returns
// results in input order. The Belady lower bound can be included by passing
// a factory that captures the trace.
func ReplayAll(t *Trace, capacity int, factories ...cache.Factory) []ReplayResult {
	out := make([]ReplayResult, 0, len(factories))
	for _, mk := range factories {
		out = append(out, Replay(t, mk(), capacity))
	}
	return out
}
