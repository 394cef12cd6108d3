package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gridbank/internal/node"
	"gridbank/internal/obs"
)

// The obs experiment prices the telemetry layer. Each round builds a
// FRESH pair of identical volatile worlds — one with full telemetry
// (server + client registries, per-call trace IDs, slow-op span
// accounting armed but never firing), one with everything nil — warms
// both, and times one paired A/B round, alternating which mode runs
// first. Fresh pairs matter: long-lived world pairs develop persistent
// per-world throughput asymmetries (connection and scheduler state)
// larger than the effect under measurement; pairing fresh worlds and
// taking the median ratio cancels both that and host drift. Volatile
// workloads are deliberate: with no fsync to hide behind, every atomic
// increment and histogram observation lands on the one hot core, so
// this is the worst case for relative overhead. The acceptance bar is
// <2% median throughput cost with telemetry on.

// ObsExpConfig parameterizes RunObsExp.
type ObsExpConfig struct {
	// Concurrency sweeps callers sharing each world's one connection
	// (default 1, 16).
	Concurrency []int
	// OpsPerCaller is the per-caller op count per round (default 300).
	OpsPerCaller int
	// Rounds is how many alternating off/on round pairs (default 7); medians are reported.
	Rounds int
}

// ObsPoint is one measured cell: a workload × concurrency pair with
// both modes' median throughput and the median paired ratio of telemetry.
type ObsPoint struct {
	Workload    string  `json:"workload"`
	Concurrency int     `json:"concurrency"`
	Ops         int     `json:"ops_per_mode_round"`
	OffOps      float64 `json:"off_ops_per_sec"`
	OnOps       float64 `json:"on_ops_per_sec"`
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsResult is the full sweep plus evidence the instrumented world was
// actually recording.
type ObsResult struct {
	Points []ObsPoint `json:"points"`
	// AggregateOverheadPct is the headline: the median over every
	// pair's on/off ratio pooled across all cells. Pooling quadruples
	// the sample count behind the median, so it resolves finer than any
	// single cell on a noisy host.
	AggregateOverheadPct float64 `json:"aggregate_overhead_pct"`
	// Series counts the metric series live in the instrumented world's
	// registry after the sweep — proof the "on" side paid for real.
	Series int `json:"series"`
	// ServerRequests totals the instrumented servers' request counters
	// across every round; it must cover every "on" round's operations.
	ServerRequests int64 `json:"server_requests"`
}

// RunObsExp measures telemetry overhead A/B over identical worlds.
func RunObsExp(cfg ObsExpConfig) (*ObsResult, error) {
	if len(cfg.Concurrency) == 0 {
		cfg.Concurrency = []int{1, 16}
	}
	if cfg.OpsPerCaller <= 0 {
		cfg.OpsPerCaller = 300
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 7
	}
	res := &ObsResult{}
	var allRatios []float64
	for _, workload := range []string{"transfer/volatile", "checkfunds/volatile"} {
		for _, c := range cfg.Concurrency {
			var offs, ons, ratios []float64
			for r := 0; r < cfg.Rounds; r++ {
				pair, err := newObsPair(c)
				if err != nil {
					return nil, err
				}
				a, b, err := pair.measure(workload, c, cfg.OpsPerCaller, r%2 == 1)
				if err == nil {
					err = pair.check()
				}
				res.Series = pair.series
				res.ServerRequests += pair.requests
				pair.close()
				if err != nil {
					return nil, err
				}
				offs = append(offs, a)
				ons = append(ons, b)
				ratios = append(ratios, b/a)
				allRatios = append(allRatios, b/a)
			}
			res.Points = append(res.Points, ObsPoint{
				Workload:    workload,
				Concurrency: c,
				Ops:         c * cfg.OpsPerCaller,
				OffOps:      median(offs),
				OnOps:       median(ons),
				OverheadPct: (1 - median(ratios)) * 100,
			})
		}
	}
	res.AggregateOverheadPct = (1 - median(allRatios)) * 100
	if res.ServerRequests == 0 {
		return nil, fmt.Errorf("instrumented worlds recorded no requests: telemetry was not live")
	}
	return res, nil
}

// obsPair is one round's fresh world pair: one fully instrumented, one
// with every telemetry hook nil.
type obsPair struct {
	off, on  *wireWorld
	reg      *obs.Registry
	series   int
	requests int64
}

// newObsPair builds two identical volatile worlds and turns full
// telemetry on in one: server and client registries, trace IDs stamped
// on every call, and the slow-op span machinery armed with a threshold
// nothing reaches (measuring the span accounting, not log formatting).
func newObsPair(conc int) (*obsPair, error) {
	off, err := newWireWorld(node.Config{}, conc)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	on, err := newWireWorld(node.Config{Obs: reg, Log: obs.NewLogger(io.Discard, obs.LevelInfo), SlowOp: time.Hour}, conc)
	if err != nil {
		off.close()
		return nil, err
	}
	on.client.Obs = obs.NewRegistry()
	on.client.TraceCalls = true
	return &obsPair{off: off, on: on, reg: reg}, nil
}

// measure warms both worlds equally, then times an ABBA sequence —
// off,on,on,off (or its mirror when onFirst) — and averages each mode's
// two rounds. ABBA cancels drift that is linear over the pair's
// lifetime; fresh worlds plus the alternating mirror leave the host
// nothing systematic to favor.
func (p *obsPair) measure(workload string, conc, ops int, onFirst bool) (offOps, onOps float64, err error) {
	for _, w := range []*wireWorld{p.off, p.on} {
		if _, err := w.runRound(workload, nil, conc, ops/4+1, false); err != nil {
			return 0, 0, err
		}
	}
	a, b := p.off, p.on
	if onFirst {
		a, b = b, a
	}
	var aOps, bOps float64
	for _, w := range []*wireWorld{a, b, b, a} {
		got, err := w.runRound(workload, nil, conc, ops, false)
		if err != nil {
			return 0, 0, err
		}
		if w == a {
			aOps += got / 2
		} else {
			bOps += got / 2
		}
	}
	if onFirst {
		aOps, bOps = bOps, aOps
	}
	return aOps, bOps, nil
}

// check asserts conservation through both worlds' clients and records
// proof that the instrumented side was live.
func (p *obsPair) check() error {
	for _, w := range []*wireWorld{p.off, p.on} {
		if err := w.assertConservation(); err != nil {
			return err
		}
	}
	snap := p.reg.Snapshot()
	p.series = len(snap.Counters) + len(snap.Gauges) + len(snap.Hists)
	for _, c := range snap.Counters {
		if c.Name == "server.requests" {
			p.requests = c.Value
		}
	}
	return nil
}

func (p *obsPair) close() {
	p.off.close()
	p.on.close()
}

// median is the middle sample; on a drifting host it discards the
// rounds the machine spent on someone else's work.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// WriteObsExp renders the sweep.
func WriteObsExp(w io.Writer, r *ObsResult) {
	fmt.Fprintf(w, "Telemetry overhead: identical volatile worlds, interleaved A/B rounds\n")
	fmt.Fprintf(w, "(on = server+client registries, traced calls, slow-op spans armed;\n")
	fmt.Fprintf(w, " off = all telemetry nil; volatile workloads so nothing hides the cost)\n\n")
	t := &Table{Header: []string{"workload", "callers", "off ops/s", "on ops/s", "overhead"}}
	for _, p := range r.Points {
		t.Add(p.Workload, p.Concurrency,
			fmt.Sprintf("%.0f", p.OffOps), fmt.Sprintf("%.0f", p.OnOps),
			fmt.Sprintf("%+.1f%%", p.OverheadPct))
	}
	t.Write(w)
	fmt.Fprintf(w, "\naggregate overhead (pooled median over all pairs): %+.1f%%\n", r.AggregateOverheadPct)
	fmt.Fprintf(w, "instrumented registry per world: %d series; server.requests total=%d\n",
		r.Series, r.ServerRequests)
}
