// Command benchjson converts `go test -bench` output on stdin into a JSON
// results file, so benchmark numbers can be committed and diffed across PRs
// instead of living in terminal scrollback.
//
// Usage:
//
//	go test -bench=. -benchmem ./internal/ooc/... | benchjson -out results/BENCH_ooc.json
//	go test -bench=. -benchmem ./internal/ooc/... | benchjson -check results/BENCH_ooc.json
//
// With -out, parsed results are recorded. With -check, they are compared
// against the named baseline instead: any benchmark present in both whose
// B/op or allocs/op grew by more than maxRegress percent fails the run, and
// so does a baseline row no benchmark in the run produced.
// ns/op is recorded for reading only; timing verdicts come from `go run
// ./bench -compare`. Names are matched with their -GOMAXPROCS suffix
// stripped, so a baseline "BenchmarkFrame" gates a run's "BenchmarkFrame-8".
//
// Non-benchmark lines (package headers, PASS/ok, warmup noise) are ignored,
// so the raw `go test` stream can be piped straight through. The input is
// also echoed to stdout so the pipeline stays readable in a terminal.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// maxRegress is the percent B/op or allocs/op may grow; reruns stay within 2.
const maxRegress = 5

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"` // e.g. BenchmarkFrame-8
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`  // -benchmem
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"` // -benchmem
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`    // b.SetBytes
	benchmem    bool    // the line carried the -benchmem columns
}

// File is the on-disk document; GoVersion is the toolchain `go run` ran this with.
type File struct {
	GoVersion string   `json:"go_version,omitempty"`
	Results   []Result `json:"results"`
}

func main() {
	out := flag.String("out", "", "output JSON path (record mode)")
	check := flag.String("check", "", "baseline JSON path (compare mode)")
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -out or -check is required")
		os.Exit(2)
	}

	doc, err := parseStream(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *check != "" {
		buf, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var baseline File
		if err := json.Unmarshal(buf, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *check, err)
			os.Exit(1)
		}
		compared, regressions := compare(baseline, doc)
		if compared == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no benchmark on stdin matches the baseline %s\n", *check)
			os.Exit(1)
		}
		for _, msg := range regressions {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s\n", msg)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %d%% B/op and allocs/op of %s\n", compared, maxRegress, *check)
		return
	}

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(doc.Results), *out)
}

// parseStream parses benchmark lines from r, echoing every line to echo.
func parseStream(r io.Reader, echo io.Writer) (File, error) {
	doc := File{GoVersion: runtime.Version()}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if res, ok := parseLine(line); ok {
			doc.Results = append(doc.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return doc, fmt.Errorf("reading input: %v", err)
	}
	if len(doc.Results) == 0 {
		return doc, fmt.Errorf("no benchmark lines found on stdin")
	}
	return doc, nil
}

// normalizeName strips the -GOMAXPROCS suffix go test appends, so results
// recorded on machines with different core counts still match up.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// compare gates current against baseline: for every benchmark present in
// both (by normalized name), B/op and allocs/op may each grow by at most
// maxRegress percent. `make bench` records with -benchmem, so a baseline of
// 0 is a real 0 and any rise off it regresses, as does a current line
// without those columns. allocs/op moves between Go versions, so when they
// differ a last message says to re-record. Returns the number of benchmarks
// compared and a message per regression. A benchmark only in the run is
// ignored, so adding one does not break the gate; a baseline row the run did
// not produce fails it, so a retired or renamed benchmark's row is
// re-recorded rather than left to gate nothing.
func compare(baseline, current File) (int, []string) {
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[normalizeName(r.Name)] = r
	}
	seen := make(map[string]bool, len(base))
	compared := 0
	var regressions []string
	for _, cur := range current.Results {
		name := normalizeName(cur.Name)
		b, ok := base[name]
		if !ok {
			continue
		}
		seen[name] = true
		compared++
		if !cur.benchmem {
			regressions = append(regressions, name+": no B/op and allocs/op columns; run with -benchmem")
			continue
		}
		gate := func(unit string, curV, baseV int64) {
			if float64(curV) > float64(baseV)*(1+maxRegress/100.0) {
				regressions = append(regressions, fmt.Sprintf("%s: %d %s vs baseline %d %s (limit +%d%%)",
					name, curV, unit, baseV, unit, maxRegress))
			}
		}
		gate("B/op", cur.BytesPerOp, b.BytesPerOp)
		gate("allocs/op", cur.AllocsPerOp, b.AllocsPerOp)
	}
	for _, r := range baseline.Results {
		if name := normalizeName(r.Name); !seen[name] {
			regressions = append(regressions, name+": in the baseline, produced by no benchmark in this run; re-record with `make bench`")
		}
	}
	if len(regressions) > 0 && baseline.GoVersion != current.GoVersion {
		regressions = append(regressions, fmt.Sprintf("baseline is %q, this run is %q: re-record with `make bench` before hunting",
			baseline.GoVersion, current.GoVersion))
	}
	return compared, regressions
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFrame-8   21964   54675 ns/op   11212 B/op   149 allocs/op
//	BenchmarkHistogramAddAll-8   245190   4892 ns/op   3348.92 MB/s
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, err = strconv.ParseFloat(val, 64)
			seen = err == nil
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op": // -benchmem prints B/op and allocs/op together
			r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			r.benchmem = err == nil
		case "MB/s":
			r.MBPerSec, _ = strconv.ParseFloat(val, 64)
		}
	}
	return r, seen
}
