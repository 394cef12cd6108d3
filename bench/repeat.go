package main

import (
	"fmt"
	"io"
)

// -repeat A.json B.json: is B worse than A by more than the benchmark
// allows? A is the baseline (the same commit measured earlier, or the
// parent), B the candidate. Every (end-to-end metric, workload) pair
// gets its own row and its own verdict; nothing is folded into a score.

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// worsening is how much worse b is than a, as a share of a (negative:
// b is better).
func worsening(m specMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge gives one row's verdict. A metric whose own segments disagree
// by more than its bound cannot resolve a difference of that size, so
// it is reported as unresolved rather than as unchanged or regressed.
func judge(m specMetric, a, b measured) (verdict, float64) {
	w := worsening(m, a.Value, b.Value)
	switch {
	case a.Spread > m.Bound || b.Spread > m.Bound:
		return verdictUnresolved, w
	case w > m.Bound:
		return verdictRegressed, w
	}
	return verdictOK, w
}

// compareReports prints one row per (metric, workload) and returns how
// many regressed.
func compareReports(w io.Writer, sp *spec, a, b *report) (regressed int, err error) {
	if a.Env.Commit != b.Env.Commit {
		fmt.Fprintf(w, "comparing commit %s (baseline) with %s\n", a.Env.Commit, b.Env.Commit)
	}
	if a.Env.Seconds != b.Env.Seconds || a.Env.Scale != b.Env.Scale {
		return 0, fmt.Errorf("run lengths differ (%.0fs ×%.2f vs %.0fs ×%.2f): the two files are not comparable",
			a.Env.Seconds, a.Env.Scale, b.Env.Seconds, b.Env.Scale)
	}
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			return regressed, fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		if !ra.Correct || !rb.Correct {
			return regressed, fmt.Errorf("workload %s failed its checks in one of the files; its numbers are not evidence", wl.Name)
		}
		for _, m := range sp.EndToEnd {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			if !oka || !okb {
				return regressed, fmt.Errorf("metric %s of %s is missing from one of the files", m.Name, wl.Name)
			}
			v, worse := judge(m, va, vb)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, worse*100, m.Bound*100, v)
		}
		// The run-level numbers without a bound, for the reader: no verdict.
		for _, m := range sp.PerLayer {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			if oka && okb {
				fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.1f%% %7s  not gated\n",
					wl.Name, m.Name, va.Value, vb.Value, worsening(m, va.Value, vb.Value)*100, "-")
			}
		}
	}
	return regressed, nil
}
