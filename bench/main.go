// Command bench is the repository's benchmark: seven workloads over the real
// out-of-core stack (128 KiB blocks, loopback TCP, a spill tier on disk) and
// the simulator, each reporting the same end-to-end metrics and, in a traced
// run, what every layer did. See README.md.
//
//	go run ./bench -seed 1                      every workload, one child process each
//	go run ./bench -seed 1 -trace 1             the same, then once more with spans on
//	go run ./bench -workload wire_orbit_128k -seed 1 -seconds 27 -trace 0
//	go run ./bench -compare a/report.json b/report.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	cfg := runConfig{scale: 1, setups: setups, spanCap: spanCap}
	flag.Uint64Var(&cfg.seed, "seed", 1, "picks the fly-through's orientation and seeds the retry jitter, nothing else")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measure for this long; 0 measures the workload's own frame count")
	flag.StringVar(&cfg.dir, "dir", ".bench_scratch", "where block files and spill directories go; removed afterwards")
	flag.StringVar(&cfg.out, "out", "", "directory for report.json and <workload>.trace.json; empty writes neither")
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result as the last line; empty runs them all")
		trace   = flag.Int("trace", 0, "1 records spans at the layer seams and reports the per-layer metrics instead")
		reps    = flag.Int("reps", 1, "untraced runs per workload when running them all")
		compare = flag.Bool("compare", false, "compare two report.json files, baseline first, against the benchmark's bounds")
	)
	flag.Parse()
	cfg.trace = *trace == 1
	if err := realMain(cfg, *name, *trace, *reps, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(cfg runConfig, name string, trace, reps int, compare bool) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files, baseline first")
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if trace != 0 && trace != 1 || cfg.seconds < 0 || reps < 1 || flag.NArg() != 0 {
		return fmt.Errorf("bad arguments; see -h")
	}
	for _, dir := range []string{cfg.dir, cfg.out} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	if name == "" {
		return runAll(cfg, reps)
	}
	var ok bool
	if cfg.w, ok = workloadByName(name); !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res := run(context.Background(), cfg)
	os.Remove(cfg.dir) // ours only if it is empty now
	if res.reference != nil {
		fmt.Println("untraced reference, set up once:")
		printMetrics(os.Stdout, res.reference)
		fmt.Println("traced:")
	}
	printMetrics(os.Stdout, res.Metrics)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "bench:", name+":", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: run is not correct", name)
	}
	return nil
}

func printMetrics(w *os.File, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// report is what a run of every workload writes: where it ran, and per
// workload every untraced run and, if asked for, the traced one.
type report struct {
	Env       environment      `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds,omitempty"` // 0: each workload's own frame count
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name   string   `json:"name"`
	Why    string   `json:"why"`
	Runs   []result `json:"runs"`
	Traced *result  `json:"traced,omitempty"`
	// Exact names the traced metrics that are counts which repeat from run
	// to run on this workload, and so may be compared as counts.
	Exact []string `json:"exact,omitempty"`
}

// runAll runs every workload in a child process of its own, so that no
// workload inherits another's heap, page cache warmth aside, and peak_rss_mb
// is the workload's.
func runAll(cfg runConfig, reps int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Env: readEnvironment(cfg.dir), Seed: cfg.seed, Seconds: cfg.seconds}
	rep.Env.print(os.Stdout)
	child := func(w workload, trace int) (result, error) {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", fmt.Sprint(trace), "-dir", cfg.dir, "-out", cfg.out,
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var res result
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
			return res, fmt.Errorf("%s: no result (%v): %v", w.name, err, jerr)
		}
		return res, nil
	}
	failed := false
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Why: w.why}
		for i := 0; i < reps; i++ {
			res, err := child(w, 0)
			if err != nil {
				return err
			}
			fmt.Printf("%s  run %d/%d  correct=%v attempted=%d failed=%d failed_frac=%g\n",
				w.name, i+1, reps, res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
			printMetrics(os.Stdout, res.Metrics)
			failed = failed || !res.Correct
			wr.Runs = append(wr.Runs, res)
		}
		if cfg.trace {
			res, err := child(w, 1)
			if err != nil {
				return err
			}
			fmt.Printf("%s  traced  correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
			printMetrics(os.Stdout, res.Metrics)
			failed = failed || !res.Correct
			wr.Traced = &res
			if w.exact && cfg.seconds == 0 {
				for _, d := range perLayer {
					if exactCounts[d.name] {
						wr.Exact = append(wr.Exact, d.name)
					}
				}
				fmt.Printf("  exact: %s\n", strings.Join(wr.Exact, " "))
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	os.Remove(cfg.dir)
	if cfg.out != "" {
		raw, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.out, "report.json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one run is not correct")
	}
	return nil
}
