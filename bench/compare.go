package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them. One value has no spread.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// verdict compares a candidate's runs of one metric with the baseline's.
//
//	ok          the candidate's median is no worse than the baseline's by more than the bound
//	regressed   it is
//	unresolved  the runs of either side spread wider than the bound, and the
//	            two sides' runs overlap: the data cannot tell
//
// A baseline of 0 has no share to be worse by: any move off it is an infinite
// one, so a lower-is-better metric that was 0 and no longer is has regressed.
func verdict(d metricDef, base, cand []float64) (string, float64) {
	mb, mc := median(base), median(cand)
	worse := ratio(mc-mb, mb)
	if mb == 0 && mc != 0 {
		worse = math.Copysign(math.Inf(1), mc)
	}
	better := func(x, y float64) bool { return x < y }
	if d.better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	if max(quartileSpread(base), quartileSpread(cand)) > d.bound {
		allBetter, allWorse := true, true
		for _, c := range cand {
			for _, b := range base {
				allBetter = allBetter && better(c, b)
				allWorse = allWorse && better(b, c)
			}
		}
		switch {
		case allBetter:
			return "ok", worse
		case allWorse && worse > d.bound:
			return "regressed", worse
		}
		return "unresolved", worse
	}
	if worse > d.bound {
		return "regressed", worse
	}
	return "ok", worse
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints one row per workload and end-to-end metric and
// returns an error if any row regressed or any workload's failed_frac rose.
func compareReports(w io.Writer, basePath, candPath string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cand, err := loadReport(candPath)
	if err != nil {
		return err
	}
	candBy := map[string]workloadReport{}
	for _, wr := range cand.Workloads {
		candBy[wr.Name] = wr
	}
	// values is the metric's value in every run, or nothing if a run lacks it:
	// a report that was cut short or renamed a metric must not read as 0.
	values := func(wr workloadReport, name string) []float64 {
		var v []float64
		for _, r := range wr.Runs {
			m, ok := r.Metrics[name]
			if !ok {
				return nil
			}
			v = append(v, m.Value)
		}
		return v
	}
	failedFrac := func(wr workloadReport) float64 {
		var failed, attempted int64
		for _, r := range wr.Runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return ratio(float64(failed), float64(attempted))
	}
	regressed := 0
	fmt.Fprintf(w, "%-24s %-20s %12s %12s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	for _, bw := range base.Workloads {
		cw, ok := candBy[bw.Name]
		if !ok || len(cw.Runs) == 0 || len(bw.Runs) == 0 {
			fmt.Fprintf(w, "%-24s missing from one side\n", bw.Name)
			regressed++
			continue
		}
		for _, d := range endToEnd {
			b, c := values(bw, d.name), values(cw, d.name)
			if b == nil || c == nil {
				fmt.Fprintf(w, "%-24s %-20s missing from one side\n", bw.Name, d.name)
				regressed++
				continue
			}
			v, worse := verdict(d, b, c)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-24s %-20s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n",
				bw.Name, d.name, median(b), median(c), 100*worse, 100*d.bound, v)
		}
		fb, fc := failedFrac(bw), failedFrac(cw)
		v := "ok"
		if fc > fb {
			v = "regressed"
			regressed++
		}
		fmt.Fprintf(w, "%-24s %-20s %12.6g %12.6g %8s %7s  %s\n", bw.Name, "failed_frac", fb, fc, "", "any", v)
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
