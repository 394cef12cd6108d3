package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/obs"
	"gridbank/internal/shard"
)

// --- generators -----------------------------------------------------------------

// generate drains n operations of the workload's kind from a fresh
// generator and returns the digest of the sequence.
func generate(t *testing.T, workload string, seed uint64, caller, n int) string {
	t.Helper()
	g := newOpGen(syntheticPopulation(), seed, workload, caller)
	for i := 0; i < n; i++ {
		switch workload {
		case "pay_before":
			g.nextTransfer()
		case "pay_after":
			g.nextCheque()
		case "usage_batch":
			g.nextUsage(usagePerCall)
		case "pay_as_you_go":
			g.nextStream(false)
		default:
			t.Fatalf("no generator for %q", workload)
		}
	}
	return g.digest()
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b := generate(t, w, 7, 3, 200), generate(t, w, 7, 3, 200)
		if a != b {
			t.Errorf("%s: the same seed generated two different op sequences", w)
		}
		if c := generate(t, w, 8, 3, 200); c == a {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", w)
		}
		if c := generate(t, w, 7, 4, 200); c == a {
			t.Errorf("%s: callers 3 and 4 generated the same op sequence", w)
		}
	}
}

func TestCrossShardShareMatchesTheRing(t *testing.T) {
	ring := shard.MustNewRing(numShards, 0)
	cross := func(a, b accounts.ID) bool { return ring.ShardFor(string(a)) != ring.ShardFor(string(b)) }
	pop := syntheticPopulation()
	const n = 20000
	check := func(name string, got int, want float64) {
		t.Helper()
		if share := float64(got) / n; math.Abs(share-want) > 0.02 {
			t.Errorf("%s: cross-shard share %.3f, want %.2f ± 0.02", name, share, want)
		}
	}

	g := newOpGen(pop, 1, "pay_before", 0)
	got := 0
	for i := 0; i < n; i++ {
		if op := g.nextTransfer(); cross(op.From, op.To) {
			got++
		}
	}
	check("pay_before", got, crossSharePayBefore)

	g = newOpGen(pop, 1, "pay_after", 0)
	got = 0
	for i := 0; i < n; i++ {
		if op := g.nextCheque(); cross(op.Drawer, pop.providers[0].ID) {
			got++
		}
	}
	check("pay_after", got, crossSharePayAfter)

	g = newOpGen(pop, 1, "usage_batch", 0)
	got = 0
	for i := 0; i < n/usagePerCall; i++ {
		for _, s := range g.nextUsage(usagePerCall).Subs {
			if cross(s.Drawer, s.Recipient) {
				got++
			}
		}
	}
	check("usage_batch", got, crossShareUsage)
}

func TestUsageRecordIsAbout600BytesAndPricedExactly(t *testing.T) {
	g := newOpGen(syntheticPopulation(), 1, "usage_batch", 0)
	op := g.nextUsage(usagePerCall)
	for i, s := range op.Subs {
		if n := len(s.RUR); n < 500 || n > 700 {
			t.Errorf("RUR %d is %d bytes, want about 600", i, n)
		}
	}
}

// --- arithmetic -------------------------------------------------------------------

func TestPercentileMedianSpread(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 0.95: 95, 1: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Median of segments; their spread is (max − min) / median for three
	// values and the quartile distance / median from four on, quartiles
	// as Python's statistics.quantiles(n=4) gives them.
	st := newSegmentStat([]float64{90, 110, 100}, 3000)
	if st.Value != 100 || math.Abs(st.Spread-0.2) > 1e-12 || st.Samples != 3000 {
		t.Errorf("segment stat = %+v, want value 100, spread 0.2, 3000 samples", st)
	}
	q1, q3 := quartiles([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if math.Abs(q1-27.5) > 1e-9 || math.Abs(q3-82.5) > 1e-9 {
		t.Errorf("quartiles of 10..100 = %v, %v; statistics.quantiles gives 27.5, 82.5", q1, q3)
	}
	if got := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread of 10..100 = %v, want (82.5 − 27.5) / 55 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for n, want := range map[int]float64{5000: 0.99, 1000: 0.99, 999: 0.95, 200: 0.95, 199: 0.90, 100: 0.90, 99: 1, 3: 1} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestHistogramDeltaMatchesAFreshHistogram(t *testing.T) {
	reg, fresh := obs.NewRegistry(), obs.NewRegistry()
	h := reg.Histogram("x")
	for v := int64(1); v <= 500; v++ {
		h.Observe(v * 3) // history before the window
	}
	before := reg.Snapshot()
	for v := int64(1); v <= 2000; v++ {
		h.Observe(v)
		fresh.Histogram("x").Observe(v)
	}
	after := reg.Snapshot()
	d := deltaOf(&before, &after, "x")
	want := fresh.Snapshot().Hists[0]
	if d.count != want.Count || d.sum != want.Sum {
		t.Fatalf("delta count/sum = %d/%d, want %d/%d", d.count, d.sum, want.Count, want.Sum)
	}
	if got := d.p50(); math.Abs(got-float64(want.P50)) > 1 {
		t.Errorf("delta p50 = %v, the same observations in a fresh histogram give %d", got, want.P50)
	}
	if got := deltaOf(&after, &after, "x").p50(); got != 0 {
		t.Errorf("p50 of an empty window = %v, want 0", got)
	}
}

// --- BENCHMARK.json ----------------------------------------------------------------

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecNamesAndLimits(t *testing.T) {
	sp := loadRepoSpec(t)
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, workloadNames)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", sp.Paths)
	}

	bad := func(mutate func(*spec)) error {
		cp := *loadRepoSpec(t)
		cp.EndToEnd = append([]specMetric(nil), cp.EndToEnd...)
		cp.PerLayer = append([]specMetric(nil), cp.PerLayer...)
		mutate(&cp)
		return cp.validate()
	}
	for name, mutate := range map[string]func(*spec){
		"space in a name":      func(s *spec) { s.PerLayer[0].Name = "db fsync" },
		"name used twice":      func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"name of 65 letters":   func(s *spec) { s.PerLayer[0].Name = strings.Repeat("a", 65) },
		"unit with a space":    func(s *spec) { s.EndToEnd[0].Unit = "per s" },
		"bound over a quarter": func(s *spec) { s.EndToEnd[1].Bound = 0.3 },
		"no direction":         func(s *spec) { s.EndToEnd[1].Better = "" },
		"bounded layer metric": func(s *spec) { s.PerLayer[0].Bound = 0.1 },
		"17 end-to-end metrics": func(s *spec) {
			for i := 0; len(s.EndToEnd) < 17; i++ {
				s.EndToEnd = append(s.EndToEnd, specMetric{Name: "extra" + string(rune('a'+i)), Unit: "s", Better: "lower", Bound: 0.1})
			}
		},
		"no setup_s": func(s *spec) { s.EndToEnd[0].Name = "setup_time" },
	} {
		if err := bad(mutate); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

// TestReportedNamesAreExactlyTheSpecs is the "every name in the output
// is in BENCHMARK.json and vice versa" check, for both metric groups.
func TestReportedNamesAreExactlyTheSpecs(t *testing.T) {
	sp := loadRepoSpec(t)
	run := endToEnd(&result{})
	if err := sp.cover(run); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	run["surprise_ms"] = measured{}
	if err := sp.cover(run); err == nil {
		t.Error("cover accepted a run-level metric BENCHMARK.json does not list")
	}
	l, err := runLadder("pay_after", 1, t.TempDir(), ladderSize{iters: 32, slowIters: 4, history: 32}, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	daemonLayers(&result{Workload: "pay_after", Before: &obs.Snapshot{}, After: &obs.Snapshot{}}, l.m)
	for name, v := range endToEnd(&result{}) {
		if _, gated := sp.endToEnd(name); !gated {
			l.m[name] = v.Value
		}
	}
	got := make(map[string]measured)
	for k, v := range l.m {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("per-layer %s = %v; self times and costs are never negative", k, v)
		}
		got[k] = measured{Value: v}
	}
	if err := conform(sp.PerLayer, got); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	extra := map[string]measured{"db.surprise": {}}
	for k, v := range got {
		extra[k] = v
	}
	if err := conform(sp.PerLayer, extra); err == nil {
		t.Error("conform accepted a metric BENCHMARK.json does not list")
	}
	if len(l.rungs) < 25 {
		t.Errorf("the ladder recorded %d rungs, want every layer's", len(l.rungs))
	}
}

// --- -repeat ------------------------------------------------------------------------

func TestRepeatVerdicts(t *testing.T) {
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    specMetric
		a, b measured
		want verdict
	}{
		{lower, measured{Value: 10}, measured{Value: 10.9}, verdictOK},
		{lower, measured{Value: 10}, measured{Value: 11.1}, verdictRegressed},
		{lower, measured{Value: 10}, measured{Value: 5}, verdictOK}, // better is never a regression
		{higher, measured{Value: 1000}, measured{Value: 950}, verdictOK},
		{higher, measured{Value: 1000}, measured{Value: 880}, verdictRegressed},
		{higher, measured{Value: 1000}, measured{Value: 1500}, verdictOK},
		{lower, measured{Value: 10, Spread: 0.3}, measured{Value: 10.1}, verdictUnresolved},
		{lower, measured{Value: 10}, measured{Value: 20, Spread: 0.11}, verdictUnresolved},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %v → %v judged %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestRepeatCountsRegressionsPerRow(t *testing.T) {
	sp := loadRepoSpec(t)
	mk := func(scale float64) *report {
		rep := &report{Env: environment{Seconds: 15, Scale: 1, Commit: "abc"}, Workloads: map[string]*workloadReport{}}
		for _, w := range sp.Workloads {
			wr := &workloadReport{Correct: true, EndToEnd: map[string]measured{}}
			for name := range endToEnd(&result{}) {
				wr.EndToEnd[name] = measured{Value: 100}
			}
			rep.Workloads[w.Name] = wr
		}
		v := rep.Workloads["pay_after"].EndToEnd["wal_bytes_per_op"]
		v.Value *= scale
		rep.Workloads["pay_after"].EndToEnd["wal_bytes_per_op"] = v
		return rep
	}
	var out bytes.Buffer
	if n, err := compareReports(&out, sp, mk(1), mk(1)); err != nil || n != 0 {
		t.Errorf("identical reports: %d regressed, err %v", n, err)
	}
	out.Reset()
	n, err := compareReports(&out, sp, mk(1), mk(1.5))
	if err != nil || n != 1 {
		t.Errorf("one metric 50%% worse on one workload: %d regressed, err %v", n, err)
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no row says regressed:\n%s", out.String())
	}
	short := mk(1)
	short.Env.Seconds = 5
	if _, err := compareReports(&out, sp, mk(1), short); err == nil {
		t.Error("reports of different run lengths were compared")
	}
}

// --- the real daemon -----------------------------------------------------------------

// smoke runs the program as the command line would, against the real
// gridbankd, shrunk to a fraction of a second per phase.
func smoke(t *testing.T, args ...string) int {
	t.Helper()
	if testing.Short() {
		t.Skip("boots gridbankd")
	}
	out := filepath.Join(t.TempDir(), "result.json")
	return run(append([]string{"-scale", "0.02", "-out", out}, args...))
}

func TestSmokeAllWorkloadsPassEveryCheck(t *testing.T) {
	start := time.Now()
	if code := smoke(t, "-trace", "1"); code != 0 {
		t.Fatalf("bench -scale 0.02 -trace 1 exited %d; every conservation, exactly-once and restart check must pass on seed code", code)
	}
	t.Logf("four workloads, untraced and traced, in %v", time.Since(start))
	for _, w := range workloadNames {
		raw, err := os.ReadFile(filepath.Join(".out", "trace", w+".spans.json"))
		if err != nil {
			t.Errorf("%s: no span file: %v", w, err)
			continue
		}
		if !bytes.Contains(raw, []byte(`"name":"`+w+`"`)) || !bytes.Contains(raw, []byte(`"parent":`)) {
			t.Errorf("%s: span file lacks root or child spans", w)
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(".out", "work", "*"))
	sort.Strings(leftovers)
	if len(leftovers) != 0 {
		t.Errorf("run directories left behind: %v", leftovers)
	}
}

// TestTamperedLedgerFailsTheRun is the negative test for the verifier:
// one micro-G$ of falsified acknowledgement must fail the run.
func TestTamperedLedgerFailsTheRun(t *testing.T) {
	if code := smoke(t, "-workload", "pay_before", "-tamper"); code == 0 {
		t.Fatal("a run whose acked-amount ledger was falsified by 1 µG$ exited 0: the exactly-once check cannot fail")
	}
}
