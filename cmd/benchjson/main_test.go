package main

import (
	"runtime"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkFrame-8   \t   21964\t     54675 ns/op\t   11212 B/op\t     149 allocs/op")
	if !ok {
		t.Fatal("full -benchmem line rejected")
	}
	want := Result{Name: "BenchmarkFrame-8", Iterations: 21964, NsPerOp: 54675, BytesPerOp: 11212, AllocsPerOp: 149, benchmem: true}
	if r != want {
		t.Errorf("got %+v, want %+v", r, want)
	}

	r, ok = parseLine("BenchmarkHistogramAddAll-8   245190   4892 ns/op   3348.92 MB/s")
	if !ok {
		t.Fatal("MB/s line rejected")
	}
	if r.MBPerSec != 3348.92 || r.NsPerOp != 4892 || r.benchmem {
		t.Errorf("got %+v", r)
	}

	for _, bad := range []string{
		"ok  \trepro/internal/ooc\t2.463s",
		"PASS",
		"goos: linux",
		"BenchmarkBroken-8 notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("accepted non-benchmark line %q", bad)
		}
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFrame-8":       "BenchmarkFrame",
		"BenchmarkFrame-128":     "BenchmarkFrame",
		"BenchmarkFrame":         "BenchmarkFrame",
		"BenchmarkGet-cold-16":   "BenchmarkGet-cold",
		"BenchmarkGet-cold":      "BenchmarkGet-cold",
		"BenchmarkObserve/p99-4": "BenchmarkObserve/p99",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCompare pins the -check gate: only B/op and allocs/op are held, to
// maxRegress percent, a zero baseline is a real zero, a benchmark only in the
// run is ignored, and a baseline row the run did not produce fails the gate.
// Each case's run holds its one result and every other baseline row at its
// baseline numbers.
func TestCompare(t *testing.T) {
	baseline := File{GoVersion: "go1.24.0", Results: []Result{
		{Name: "BenchmarkFrame", NsPerOp: 10000, BytesPerOp: 1840, AllocsPerOp: 2},
		{Name: "BenchmarkHit", NsPerOp: 25},
		{Name: "BenchmarkRetired", NsPerOp: 50},
	}}
	mem := func(name string, ns float64, bytes, allocs int64) Result {
		return Result{Name: name, NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs, benchmem: true}
	}
	for _, tc := range []struct {
		name      string
		goVersion string
		cur       Result
		missing   string // a baseline row the run lacks
		compared  int
		want      []string // a substring per expected regression, in order
	}{
		{"ns/op x4, memory equal", "go1.24.0", mem("BenchmarkFrame-8", 40000, 1840, 2), "", 3, nil},
		{"allocs/op 2 to 3", "go1.24.0", mem("BenchmarkFrame-8", 10000, 1840, 3), "", 3, []string{"3 allocs/op vs baseline 2"}},
		{"allocs/op 0 to 1", "go1.24.0", mem("BenchmarkHit-8", 25, 0, 1), "", 3, []string{"1 allocs/op vs baseline 0"}},
		{"B/op inside the bound", "go1.24.0", mem("BenchmarkFrame-8", 10000, 1840*(100+maxRegress)/100, 2), "", 3, nil},
		{"B/op outside the bound", "go1.24.0", mem("BenchmarkFrame-8", 10000, 1840*(100+maxRegress)/100+1, 2), "", 3, []string{"B/op vs baseline 1840"}},
		{"memory improved", "go1.24.0", mem("BenchmarkFrame-8", 10000, 900, 1), "", 3, nil},
		{"no -benchmem columns", "go1.24.0", Result{Name: "BenchmarkHit-8", NsPerOp: 25}, "", 3, []string{"-benchmem"}},
		{"only in current", "go1.24.0", mem("BenchmarkNew-8", 1, 1<<30, 1<<20), "", 3, nil},
		{"baseline row not produced", "go1.24.0", mem("BenchmarkFrame-8", 10000, 1840, 2), "BenchmarkRetired", 2, []string{"BenchmarkRetired: in the baseline, produced by no benchmark"}},
		{"version mismatch, regression", "go1.22.0", mem("BenchmarkFrame-8", 10000, 1840, 3), "", 3, []string{"3 allocs/op vs baseline 2", `baseline is "go1.24.0", this run is "go1.22.0"`}},
		{"version mismatch, no regression", "go1.22.0", mem("BenchmarkFrame-8", 10000, 1840, 2), "", 3, nil},
	} {
		run := []Result{tc.cur}
		for _, b := range baseline.Results {
			if b.Name != normalizeName(tc.cur.Name) && b.Name != tc.missing {
				run = append(run, mem(b.Name+"-8", b.NsPerOp, b.BytesPerOp, b.AllocsPerOp))
			}
		}
		compared, regs := compare(baseline, File{GoVersion: tc.goVersion, Results: run})
		if compared != tc.compared {
			t.Errorf("%s: compared %d benchmarks, want %d", tc.name, compared, tc.compared)
		}
		if len(regs) != len(tc.want) {
			t.Errorf("%s: regressions = %q, want %d", tc.name, regs, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(regs[i], w) {
				t.Errorf("%s: regression %q lacks %q", tc.name, regs[i], w)
			}
		}
	}
	if compared, _ := compare(File{}, baseline); compared != 0 {
		t.Errorf("empty baseline compared %d benchmarks", compared)
	}
}

// TestCompareMemoryGates pins that one benchmark can fail on both
// dimensions at once, B/op first, and that a baseline recorded at 0 B/op,
// 0 allocs/op gates both rather than being skipped.
func TestCompareMemoryGates(t *testing.T) {
	baseline := File{Results: []Result{
		{Name: "BenchmarkFrame", NsPerOp: 10000, BytesPerOp: 1000, AllocsPerOp: 40},
		{Name: "BenchmarkZero", NsPerOp: 10000},
	}}
	current := File{Results: []Result{
		{Name: "BenchmarkFrame-8", NsPerOp: 10000, BytesPerOp: 2000, AllocsPerOp: 80, benchmem: true},
		{Name: "BenchmarkZero-8", NsPerOp: 10000, BytesPerOp: 1 << 30, AllocsPerOp: 1 << 20, benchmem: true},
	}}
	compared, regs := compare(baseline, current)
	if compared != 2 {
		t.Errorf("compared %d benchmarks, want 2", compared)
	}
	if len(regs) != 4 {
		t.Fatalf("regressions = %q, want B/op and allocs/op for each benchmark", regs)
	}
	for i, want := range []string{"BenchmarkFrame: 2000 B/op", "BenchmarkFrame: 80 allocs/op", "BenchmarkZero: 1073741824 B/op", "BenchmarkZero: 1048576 allocs/op"} {
		if !strings.Contains(regs[i], want) {
			t.Errorf("regression %d = %q, want %q", i, regs[i], want)
		}
	}
}

func TestParseStream(t *testing.T) {
	in := strings.NewReader(`goos: linux
BenchmarkFrame-8   21964   54675 ns/op   11212 B/op   149 allocs/op
PASS
ok  	repro/internal/ooc	2.463s
`)
	var echo strings.Builder
	doc, err := parseStream(in, &echo)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 || doc.Results[0].Name != "BenchmarkFrame-8" {
		t.Errorf("results = %+v", doc.Results)
	}
	if doc.GoVersion != runtime.Version() {
		t.Errorf("go version = %q", doc.GoVersion)
	}
	if !strings.Contains(echo.String(), "PASS") {
		t.Error("input not echoed through")
	}
	if _, err := parseStream(strings.NewReader("PASS\n"), &echo); err == nil {
		t.Error("benchmark-free input accepted")
	}
}
