package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
)

// One workload run: its own daemon and data directory, taken through
// set-up → restart pair → solo → loaded → quiesce + verify.

// Load shape: closed loop — a broker paying per job and a GSP's
// charging module redeeming per job each block on the bank's reply.
// One connection per core (2 here), 16 caller goroutines multiplexed
// on each: 32 calls in flight, within the server's DefaultMaxInFlight.
const (
	numConns       = 2
	callersPerConn = 16
	numCallers     = numConns * callersPerConn
	// The loaded phase is cut into this many consecutive segments and
	// every rate and timing is the median of its per-segment values: the
	// box's disk alternates between a quiet and a busy regime every few
	// seconds, and a median over many short segments lands in the regime
	// that prevails instead of averaging whatever mix a run happened to
	// get.
	numSegments = 10
	// restartReps is how often the restart pair is repeated (from a copy
	// of the same pre-restart data directory); the medians are reported.
	restartReps = 3
)

// Set-up is paced, not raced: enrolment, funding and the preload are
// released at fixed rates, about half of what the daemon sustains on the
// build host, so the history is laid down under the same load — and
// setup_s comes out the same — whether the host is having a fast minute
// or a slow one (its clock-based numbers move by a quarter between
// them). Work moved into set-up still shows: anything outside the paced
// loops (boot, the workload's own preparation, the drain) is raced, and
// a paced step that can no longer keep its rate takes as long as it
// takes.
const (
	enrolPerSecond = 300
	fundPerSecond  = 1500
)

// preloadPerSecond is the preload's pace in items of the workload's
// kind.
var preloadPerSecond = map[string]float64{
	"pay_before":    600,
	"pay_after":     400,
	"pay_as_you_go": 5000,
	"usage_batch":   1200,
}

// pacer releases the k-th item of a paced step k/rate seconds after the
// step began. A zero pacer does not hold anything back.
type pacer struct {
	start time.Time
	rate  float64 // items per second
}

func newPacer(rate float64) pacer { return pacer{start: time.Now(), rate: rate} }

// wait blocks until item k (counting from 0) is due.
func (p pacer) wait(k int64) {
	if p.rate > 0 {
		time.Sleep(time.Until(p.start.Add(time.Duration(float64(k) / p.rate * float64(time.Second)))))
	}
}

// runConfig is everything that shapes one workload run.
type runConfig struct {
	workload  string
	seed      uint64
	solo      time.Duration // phase 3
	segment   time.Duration // phase 4 is numSegments of these
	preload   int           // phase 1 warm-up, in items of the workload's kind
	consumers int           // consumer accounts (numConsumers unless scaled down)
	trace     bool
	tamper    bool   // negative test: falsify the loader's acked ledger by 1 µG$
	bin       string // gridbankd binary
	workDir   string // parent of this run's data directory
	traceDir  string // where the traced run writes its spans
}

// env is the state of one run.
type env struct {
	cfg runConfig
	d   *daemon
	pop *population
	gsp *pki.Identity // provider 0's real identity (pay_after redeems as it)
	w   workload

	connA, connB *core.Client // the two loaded-phase connections
	admin        *core.Client // a third, idle-most-of-the-time banker connection for sampling and verification

	deposits currency.Amount // Σ admin deposits
	opening  currency.Amount // every provider's opening balance
	acked    []atomic.Int64  // per provider: Σ µG$ of acknowledged payments
	items    atomic.Int64    // acknowledged items of the workload's kind (all phases)

	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[string]

	gate *gate // pipeline workloads only; lives as long as the connections

	epoch time.Time
	bufs  []*spanBuf
}

// workload is what differs between the four payment models.
type workload interface {
	// prepare builds client-side state once accounts exist (set-up).
	prepare(e *env) error
	// reconnect rebinds to fresh connections after a daemon restart.
	reconnect(e *env)
	// caller returns caller i's operation: one client-visible op per
	// call, blocking until the bank replies, recording spans into sb
	// (nil: none).
	caller(e *env, i int, gen *opGen) func(sb *spanBuf) error
	// solo returns the unloaded critical-path operation.
	solo(e *env, gen *opGen, sb *spanBuf) func() error
	// status reports completed-and-durable units so far; direct
	// workloads count acknowledged ops, pipelines ask the daemon how many
	// it has settled and how long its queue is.
	status(e *env) (pipeStat, error)
	// gated says whether producers hold back at the intake window.
	gated() bool
	// itemsPerOp is how many items one caller op carries.
	itemsPerOp() int
	// quiesce drains asynchronous work and checks the pipeline's own
	// exactly-once counters.
	quiesce(e *env) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "pay_before":
		return &payBefore{}, nil
	case "pay_after":
		return &payAfter{}, nil
	case "pay_as_you_go":
		return &payAsYouGo{}, nil
	case "usage_batch":
		return &usageBatch{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// check is one verification of the run's outputs.
type check struct {
	Name string `json:"name"`
	Err  string `json:"error,omitempty"` // empty: the check held
}

// result is everything one workload run measured.
type result struct {
	Workload string
	Seed     uint64

	SetupS             float64
	RestartReplayS     float64
	RestartCheckpointS float64
	ServerRSSMiB       float64
	SoloFsyncsPerOp    float64
	SoloP50Ms          float64
	SoloSamples        int
	Throughput         segmentStat
	LatencyP50Ms       segmentStat
	LatencyTailMs      segmentStat
	TailQuantile       float64 // 0.99 unless the loaded phase completed < 1000 operations
	ServerCPUUsPerOp   segmentStat
	WALBytesPerOp      segmentStat

	Attempted, Failed int64
	FirstErr          string
	Checks            []check
	Correct           bool // no operation failed and every check held

	// Traced run only.
	TraceOverhead  float64 // throughput with spans ÷ without
	PingP50Us      float64 // Client.Ping round trip against the daemon
	ItemsTraced    int64   // items acknowledged between the two snapshots
	QueueDepthMean float64
	DrainS         float64
	Spans          int
	SpanFile       string
	Before, After  *obs.Snapshot
}

// record notes the outcome of one check.
func (r *result) record(name string, err error) {
	c := check{Name: name}
	if err != nil {
		c.Err = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

func (e *env) fail(err error) {
	e.failed.Add(1)
	msg := err.Error()
	e.firstErr.CompareAndSwap(nil, &msg)
}

// runWorkload executes all five phases and returns the measurements.
// The error is non-nil only when the run could not be carried out;
// failed operations and failed checks are reported in the result.
func runWorkload(cfg runConfig) (*result, error) {
	runDir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	registerDir(runDir)
	defer os.RemoveAll(runDir)
	// Whatever the previous run left dirty is flushed before this one is
	// timed, not during it.
	syscall.Sync()
	res := &result{Workload: cfg.workload, Seed: cfg.seed}

	// Phase 1: set-up.
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	d, err := newDaemon(cfg.bin, runDir, "data")
	if err != nil {
		return nil, err
	}
	defer d.kill()
	e := &env{cfg: cfg, d: d, w: w, epoch: time.Now()}
	t0 := time.Now()
	if err := e.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	// Phase 2: restart pair, restartReps times over the same history.
	// The first restart of a pair replays exactly the set-up + preload
	// journal, checkpoints it and compacts; the second loads that
	// checkpoint with an empty journal tail.
	e.closeConns()
	if err := e.restartPairs(res); err != nil {
		return nil, err
	}
	if err := e.connect(); err != nil {
		return nil, err
	}
	w.reconnect(e)
	var itemsBefore int64
	if cfg.trace {
		if res.PingP50Us, err = e.pingP50(); err != nil {
			return nil, err
		}
		itemsBefore = e.items.Load()
	}

	// Phase 3: solo. The daemon's own fsync count over the phase gives
	// the device flushes one unloaded operation costs — a count, so it
	// holds still on a host whose clock-based numbers do not.
	soloBefore, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	soloLat, err := e.soloPhase()
	if err != nil {
		return nil, fmt.Errorf("solo phase: %w", err)
	}
	soloAfter, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	res.Before = soloBefore
	sort.Float64s(soloLat)
	res.SoloSamples = len(soloLat)
	if len(soloLat) > 0 {
		res.SoloP50Ms = percentile(soloLat, 0.5)
		res.SoloFsyncsPerOp = float64(deltaOf(soloBefore, soloAfter, "db.fsync").count) / float64(len(soloLat))
	}

	// Phase 4: loaded.
	if err := e.loadedPhase(res); err != nil {
		return nil, fmt.Errorf("loaded phase: %w", err)
	}

	// Phase 5: quiesce + verify.
	t0 = time.Now()
	if err := w.quiesce(e); w.gated() {
		res.record("pipeline drained: settled == accepted, pending == failed == rejected == 0", err)
	}
	res.DrainS = time.Since(t0).Seconds()
	if cfg.trace {
		if res.After, err = e.snapshot(); err != nil {
			return nil, err
		}
		res.ItemsTraced = e.items.Load() - itemsBefore
	}
	if cfg.tamper {
		e.acked[0].Add(1)
	}
	e.verify(res)
	e.closeConns()

	res.Attempted, res.Failed = e.attempted.Load(), e.failed.Load()
	if p := e.firstErr.Load(); p != nil {
		res.FirstErr = *p
	}
	res.Correct = res.Failed == 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.Err == ""
	}
	if cfg.trace {
		res.SpanFile = filepath.Join(cfg.traceDir, cfg.workload+".spans.json")
		if res.Spans, err = writeSpans(res.SpanFile, e.bufs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// restartPairs times SIGKILL → restart twice in a row, restartReps
// times, each time from a pristine copy of the data directory as set-up
// left it, and leaves the daemon running on the last one.
func (e *env) restartPairs(res *result) error {
	e.d.kill()
	pristine := e.d.dataDir + ".pre"
	if err := copyDir(e.d.dataDir, pristine); err != nil {
		return err
	}
	defer os.RemoveAll(pristine)
	var replay, ckpt, rss []float64
	for r := 0; r < restartReps; r++ {
		if r > 0 {
			if err := os.RemoveAll(e.d.dataDir); err != nil {
				return err
			}
			if err := copyDir(pristine, e.d.dataDir); err != nil {
				return err
			}
		}
		took, err := e.d.restart()
		if err != nil {
			return fmt.Errorf("restart (replay): %w", err)
		}
		replay = append(replay, took.Seconds())
		if took, err = e.d.restart(); err != nil {
			return fmt.Errorf("restart (checkpoint): %w", err)
		}
		ckpt = append(ckpt, took.Seconds())
		mib, err := e.d.rssMiB()
		if err != nil {
			return err
		}
		rss = append(rss, mib)
	}
	res.RestartReplayS, res.RestartCheckpointS, res.ServerRSSMiB = median(replay), median(ckpt), median(rss)
	return nil
}

// copyDir copies the regular files of src (a flat data directory) into
// a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// connect opens the three banker connections (connB as provider 0 on
// pay_after, which redeems under its own identity).
func (e *env) connect() error {
	var err error
	if e.connA, err = e.d.dial("banker"); err != nil {
		return err
	}
	if e.cfg.workload == "pay_after" {
		e.connB, err = e.d.dialAs(e.gsp)
	} else {
		e.connB, err = e.d.dial("banker")
	}
	if err != nil {
		return err
	}
	if e.admin, err = e.d.dial("banker"); err != nil {
		return err
	}
	for _, c := range []*core.Client{e.connA, e.connB, e.admin} {
		if _, err := c.Ping(); err != nil {
			return err
		}
	}
	if e.w.gated() {
		e.gate = startGate(func() (pipeStat, error) { return e.w.status(e) })
	}
	return nil
}

func (e *env) closeConns() {
	e.gate.close()
	e.gate = nil
	for _, c := range []*core.Client{e.connA, e.connB, e.admin} {
		if c != nil {
			c.Close()
		}
	}
	e.connA, e.connB, e.admin = nil, nil, nil
}

// conn returns the loaded-phase connection caller i multiplexes on.
func (e *env) conn(i int) *core.Client {
	if i%numConns == 0 {
		return e.connA
	}
	return e.connB
}

// pingP50 is the median Client.Ping round trip on an idle connection:
// what the wire, TLS and the two processes' wake-ups cost an operation
// before the bank does any work for it.
func (e *env) pingP50() (float64, error) {
	ns, err := medianNs(max(16, e.cfg.preload/5), func() error { _, err := e.connA.Ping(); return err })
	return ns / 1e3, err
}

func (e *env) snapshot() (*obs.Snapshot, error) {
	resp, err := e.admin.MetricsSnapshot()
	if err != nil {
		return nil, err
	}
	if !resp.Enabled {
		return nil, errors.New("daemon runs without a metrics registry")
	}
	return &resp.Snapshot, nil
}

// setup boots the daemon, enrols and funds the population, lets the
// workload build its client state, and runs the fixed preload.
func (e *env) setup() error {
	if _, err := e.d.start(); err != nil {
		return err
	}
	ca, err := e.d.ca()
	if err != nil {
		return err
	}
	// Enrolment (§3.2): every account holder authenticates with its own
	// certificate and opens its own account. Provider 0 goes first so it
	// holds the lowest account number.
	issue := func(name string) (*pki.Identity, error) {
		return ca.Issue(pki.IssueOptions{CommonName: name, Organization: "VO-Bench"})
	}
	enrol := func(id *pki.Identity) (account, error) {
		c, err := e.d.dialAs(id)
		if err != nil {
			return account{}, err
		}
		defer c.Close()
		a, err := c.CreateAccount("VO-Bench", "")
		if err != nil {
			return account{}, err
		}
		return account{ID: a.AccountID, Cert: a.CertificateName}, nil
	}
	if e.gsp, err = issue("gsp-0"); err != nil {
		return err
	}
	total := e.cfg.consumers + numProviders
	all := make([]account, total)
	if all[0], err = enrol(e.gsp); err != nil {
		return fmt.Errorf("enrolling gsp-0: %w", err)
	}
	err = parallel(numCallers, total-1, newPacer(enrolPerSecond), func(_, k int) error {
		id, err := issue(fmt.Sprintf("holder-%04d", k+1))
		if err != nil {
			return err
		}
		all[k+1], err = enrol(id)
		return err
	})
	if err != nil {
		return fmt.Errorf("enrolling account holders: %w", err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if all[0].Cert != e.gsp.SubjectName() {
		return fmt.Errorf("provider 0 is %s, want %s", all[0].Cert, e.gsp.SubjectName())
	}
	if e.pop, err = newPopulation(all, numProviders); err != nil {
		return err
	}
	e.acked = make([]atomic.Int64, numProviders)

	if err := e.connect(); err != nil {
		return err
	}
	e.opening = currency.FromG(providerFundsG)
	err = parallel(numCallers, total, newPacer(fundPerSecond), func(w, k int) error {
		amount := currency.FromG(consumerFundsG)
		if k < numProviders {
			amount = e.opening
		}
		return e.admin.AdminDeposit(all[k].ID, amount)
	})
	if err != nil {
		return fmt.Errorf("funding accounts: %w", err)
	}
	e.deposits = currency.FromG(int64(numProviders)*providerFundsG + int64(e.cfg.consumers)*consumerFundsG)

	if err := e.w.prepare(e); err != nil {
		return fmt.Errorf("preparing %s: %w", e.cfg.workload, err)
	}
	if err := e.preload(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// parallel runs fn(worker, k) for k in [0, n) on `workers` goroutines,
// each k released by the pacer, and returns the first error.
func parallel(workers, n int, pace pacer, fn func(worker, k int) error) error {
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		goSafe(&wg, func() {
			for firstErr.Load() == nil {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				pace.wait(int64(k))
				if err := fn(w, k); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		})
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// preload pushes a fixed number of items of the workload's own kind
// through the daemon with the loaded phase's caller layout, so every
// run restarts over the same history size and measures warm caches.
func (e *env) preload() error {
	if e.cfg.preload <= 0 {
		return nil
	}
	var issued atomic.Int64 // items handed to callers so far
	pace := newPacer(preloadPerSecond[e.cfg.workload])
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for i := 0; i < numCallers; i++ {
		gen := newOpGen(e.pop, e.cfg.seed, e.cfg.workload, preloadCaller+i)
		op := e.w.caller(e, i, gen)
		per := int64(e.w.itemsPerOp())
		goSafe(&wg, func() {
			for firstErr.Load() == nil {
				first := issued.Add(per) - per
				if first >= int64(e.cfg.preload) {
					return
				}
				pace.wait(first)
				if err := op(nil); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		})
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return e.w.quiesce(e)
}

// soloPhase runs one caller with one call in flight on connection A and
// returns every latency in milliseconds.
func (e *env) soloPhase() ([]float64, error) {
	var sb *spanBuf
	if e.cfg.trace {
		sb = newSpanBuf(e.epoch, numCallers)
		e.bufs = append(e.bufs, sb)
	}
	gen := newOpGen(e.pop, e.cfg.seed, e.cfg.workload, soloCaller)
	op := e.w.solo(e, gen, sb)
	var lat []float64
	deadline := time.Now().Add(e.cfg.solo)
	for time.Now().Before(deadline) {
		t := time.Now()
		e.attempted.Add(1)
		if err := op(); err != nil {
			e.fail(err)
			continue
		}
		lat = append(lat, float64(time.Since(t))/1e6)
	}
	return lat, nil
}

// sample is one reading of the daemon-side counters the loaded phase
// differences per segment.
type sample struct {
	at    time.Time
	units float64
	cpuUs float64
	wal   int64
}

func (e *env) sample() (sample, error) {
	s := sample{at: time.Now()}
	var err error
	st, err := e.w.status(e)
	if err != nil {
		return s, err
	}
	s.units = float64(st.settled)
	if s.cpuUs, err = e.d.cpuMicros(); err != nil {
		return s, err
	}
	s.wal, err = e.d.walBytes()
	return s, err
}

// loadedPhase runs numCallers closed-loop callers for numSegments
// consecutive segments and reports every timing and rate as the median
// of its per-segment values. A traced run splits each segment in two
// and records spans only in the first half of each, so the two halves'
// throughputs give the tracing overhead from one run, drift cancelled.
func (e *env) loadedPhase(res *result) error {
	nSeg, segLen := numSegments, e.cfg.segment
	if e.cfg.trace {
		nSeg, segLen = 2*numSegments, e.cfg.segment/2
	}
	traced := func(s int) bool { return e.cfg.trace && s%2 == 0 }
	var seg atomic.Int32 // current segment; nSeg = stop
	lat := make([][][]float64, numCallers)
	var wg sync.WaitGroup
	for i := 0; i < numCallers; i++ {
		i := i
		lat[i] = make([][]float64, nSeg)
		var sb *spanBuf
		if e.cfg.trace {
			sb = newSpanBuf(e.epoch, i)
			e.bufs = append(e.bufs, sb)
		}
		op := e.w.caller(e, i, newOpGen(e.pop, e.cfg.seed, e.cfg.workload, i))
		goSafe(&wg, func() {
			for s := int(seg.Load()); s < nSeg; s = int(seg.Load()) {
				buf := sb
				if !traced(s) {
					buf = nil
				}
				t := time.Now()
				e.attempted.Add(1)
				if err := op(buf); err != nil {
					e.fail(err)
					continue
				}
				// An op belongs to the segment it completes in; ops that
				// finish after the last boundary are verified but not timed.
				if s := int(seg.Load()); s < nSeg {
					lat[i][s] = append(lat[i][s], float64(time.Since(t))/1e6)
				}
			}
		})
	}
	stop := func(err error) error {
		seg.Store(int32(nSeg))
		wg.Wait()
		return err
	}

	samples := make([]sample, nSeg+1)
	var depth []float64
	var err error
	if samples[0], err = e.sample(); err != nil {
		return stop(err)
	}
	for s := 0; s < nSeg; s++ {
		end := samples[0].at.Add(time.Duration(s+1) * segLen)
		for time.Now().Before(end) {
			wait := time.Until(end)
			if e.cfg.trace && wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			time.Sleep(wait)
			if e.cfg.trace {
				if st, qerr := e.w.status(e); qerr == nil {
					depth = append(depth, float64(st.queue))
				}
			}
		}
		samples[s+1], err = e.sample()
		seg.Store(int32(s + 1))
		if err != nil {
			return stop(err)
		}
	}
	wg.Wait()

	var thr, p50, cpu, wal, pooled []float64
	merged := make([][]float64, nSeg)
	for s := 0; s < nSeg; s++ {
		for i := range lat {
			merged[s] = append(merged[s], lat[i][s]...)
		}
		sort.Float64s(merged[s])
		pooled = append(pooled, merged[s]...)
	}
	sort.Float64s(pooled)
	total := len(pooled)
	var on, off []float64 // throughput of traced and untraced segments
	for s := 0; s < nSeg; s++ {
		// A segment without a completed operation or a settled unit is
		// possible only when -scale shrinks segments to milliseconds; it
		// has no latency and no per-unit cost to report.
		if len(merged[s]) > 0 {
			p50 = append(p50, percentile(merged[s], 0.5))
		}
		a, b := samples[s], samples[s+1]
		units := b.units - a.units
		if units <= 0 {
			continue
		}
		rate := units / b.at.Sub(a.at).Seconds()
		thr = append(thr, rate)
		cpu = append(cpu, (b.cpuUs-a.cpuUs)/units)
		wal = append(wal, float64(b.wal-a.wal)/units)
		if traced(s) {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	if len(thr) == 0 || len(p50) == 0 {
		return errors.New("no segment completed a unit of work")
	}

	res.Throughput = newSegmentStat(thr, total)
	res.LatencyP50Ms = newSegmentStat(p50, total)
	// The tail is taken over the whole phase: a segment of the slower
	// workloads holds too few operations for ten beyond its own p99.
	res.TailQuantile = tailPercentile(total)
	res.LatencyTailMs = segmentStat{Value: percentile(pooled, res.TailQuantile), Samples: total}
	res.ServerCPUUsPerOp = newSegmentStat(cpu, total)
	res.WALBytesPerOp = newSegmentStat(wal, total)
	if e.cfg.trace && len(on) > 0 && len(off) > 0 {
		res.TraceOverhead = median(on) / median(off)
	}
	if len(depth) > 0 {
		var sum float64
		for _, q := range depth {
			sum += q
		}
		res.QueueDepthMean = sum / float64(len(depth))
	}
	return nil
}

// verify checks the books against the loader's own record of what the
// bank acknowledged, then that a SIGKILL loses none of it.
func (e *env) verify(res *result) {
	check := res.record
	before, err := e.admin.AdminListAccounts()
	if err != nil {
		check("listing accounts", err)
		return
	}
	check("conservation: Σ available + locked == deposits (2PC escrow empty after quiesce)", e.checkConservation(before))
	check("exactly-once: every provider's credit == Σ acknowledged amounts", e.checkCredits(before))

	e.closeConns()
	if _, err := e.d.restart(); err != nil {
		check("restart after SIGKILL", err)
		return
	}
	if err := e.connect(); err != nil {
		check("reconnect after SIGKILL", err)
		return
	}
	after, err := e.admin.AdminListAccounts()
	if err != nil {
		check("listing accounts after SIGKILL", err)
		return
	}
	// A process kill leaves the OS page cache intact, so this proves the
	// daemon orders its acks after its fsyncs — not that the device kept
	// the bytes.
	check("durability: balances identical after SIGKILL + restart (acked ⊆ durable; OS cache survives a process kill)", sameBooks(before, after))
}

func (e *env) checkConservation(accts []accounts.Account) error {
	var sum currency.Amount
	for _, a := range accts {
		sum = sum.MustAdd(a.AvailableBalance).MustAdd(a.LockedBalance)
	}
	if sum != e.deposits {
		return fmt.Errorf("accounts hold %s, deposits were %s", sum, e.deposits)
	}
	return nil
}

func (e *env) checkCredits(accts []accounts.Account) error {
	byID := make(map[accounts.ID]accounts.Account, len(accts))
	for _, a := range accts {
		byID[a.AccountID] = a
	}
	for i, p := range e.pop.providers {
		want := e.opening.MustAdd(currency.FromMicro(e.acked[i].Load()))
		if got := byID[p.ID].AvailableBalance; got != want {
			return fmt.Errorf("provider %d (%s) holds %s, acknowledged payments say %s", i, p.ID, got, want)
		}
	}
	return nil
}

func sameBooks(a, b []accounts.Account) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d accounts before, %d after", len(a), len(b))
	}
	want := make(map[accounts.ID]accounts.Account, len(a))
	for _, x := range a {
		want[x.AccountID] = x
	}
	for _, y := range b {
		x := want[y.AccountID]
		if x.AvailableBalance != y.AvailableBalance || x.LockedBalance != y.LockedBalance {
			return fmt.Errorf("%s: %s/%s locked before, %s/%s after", y.AccountID,
				x.AvailableBalance, x.LockedBalance, y.AvailableBalance, y.LockedBalance)
		}
	}
	return nil
}
