package main

import (
	"fmt"
	"io"
	"sort"
)

// samplesOf returns the per-run samples a metric's median was taken
// from, for the spread check; peak_rss_mb is one reading per process.
func samplesOf(r *runResult, name string) []float64 {
	switch name {
	case "setup_s":
		return r.SetupS
	case "faults_per_s":
		var rates []float64
		for _, p := range r.Passes {
			rates = append(rates, p.Rate)
		}
		return rates
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse b is than a as a share of a, and the declared bound. A
// pair whose samples spread wider than the bound is unresolved, not
// unchanged. It returns false when any pair is out of bound, any
// operation failed, or an exact counter differs between the sets.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-15s %-13s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, decl := range workloadDecls {
		ra, rb := a.Runs[decl.Name], b.Runs[decl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-15s missing from one of the sets\n", decl.Name)
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(samplesOf(ra, m.Name)), quartileSpread(samplesOf(rb, m.Name)))
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict, ok = "OUT OF BOUND", false
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (per-run spread %.3f)", spread)
			}
			fmt.Fprintf(w, "%-15s %-13s %14.6g %14.6g %+8.3f %6.2f  %s (n=%d, %d)\n", decl.Name, m.Name, va, vb, worse, m.Bound,
				verdict, max(len(samplesOf(ra, m.Name)), 1), max(len(samplesOf(rb, m.Name)), 1))
		}
		verdict := "0 in both"
		if ra.Failed+rb.Failed > 0 {
			verdict, ok = "FAILED OPERATIONS", false
		}
		fmt.Fprintf(w, "%-15s %-13s %11d/%-2d %11d/%-2d %8s %6s  %s\n", decl.Name, "failed_share",
			ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, "", "0", verdict)
		if diffs := exactDiffs(ra, rb); len(diffs) > 0 {
			ok = false
			for _, d := range diffs {
				fmt.Fprintf(w, "%-15s exact counter differs: %s\n", decl.Name, d)
			}
		}
	}
	return ok, nil
}

// exactDiffs lists the digests and exact counters that differ between
// passes of the two runs that ran the same seed.
func exactDiffs(a, b *runResult) []string {
	var out []string
	for i := 0; i < min(len(a.Passes), len(b.Passes)); i++ {
		pa, pb := a.Passes[i], b.Passes[i]
		if pa.Seed != pb.Seed {
			continue
		}
		if pa.Digest != pb.Digest {
			out = append(out, fmt.Sprintf("pass %d digest %s vs %s", i, pa.Digest, pb.Digest))
		}
		var names []string
		for name := range pa.Exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if pa.Exact[name] != pb.Exact[name] {
				out = append(out, fmt.Sprintf("pass %d %s %v vs %v", i, name, pa.Exact[name], pb.Exact[name]))
			}
		}
	}
	return out
}
