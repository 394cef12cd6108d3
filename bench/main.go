// Command bench is GridBank's end-to-end benchmark: one workload per
// §3.3 payment model (plus the batched §5.1 usage path), each driven
// over real loopback TLS against the production gridbankd running as a
// child process, with an outside-in per-layer cost ladder underneath.
//
//	go run -C bench .                       # all four workloads, end-to-end metrics
//	go run -C bench . -trace 1              # … plus the traced runs and the layer ladder
//	go run -C bench . -workload pay_after   # one workload (what the benchmark driver runs)
//	go run -C bench . -repeat A.json B.json # is B worse than A by more than BENCHMARK.json allows?
//
// See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// preloadItems is the fixed warm-up every run pushes through its daemon
// before the restart pair, in items of the workload's own kind
// (transfers, cheques, claims, charges).
const preloadItems = 1_500

func main() {
	os.Exit(run(os.Args[1:]))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	out      string
	repeat   bool
	tamper   bool
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end standard output with the one-line JSON result (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every random choice the loader makes")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run: solo phase + loaded phase (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1: run traced — client spans, daemon metric deltas and the layer ladder — and report the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "shrink phase lengths, preload and ladder iterations by this factor (smoke tests)")
	fs.StringVar(&o.out, "out", filepath.Join(".out", "result.json"), "write the result JSON here")
	fs.BoolVar(&o.repeat, "repeat", false, "compare two result files: bench -repeat A.json B.json")
	fs.BoolVar(&o.tamper, "tamper", false, "falsify the loader's record of acknowledged payments by 1 µG$; the run must then fail (tests the verifier)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// `go run -C bench .` starts the program in bench/; the checkout it
	// measures is the directory above.
	repoRoot, err := filepath.Abs("..")
	if err != nil {
		return fatal(err)
	}
	sp, err := loadSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return fatal(err)
	}
	if o.repeat {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-repeat needs two result files, got %d", fs.NArg()))
		}
		return repeatMain(sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fatal(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.scale <= 0 || o.scale > 1 || (o.trace != 0 && o.trace != 1) {
		return fatal(fmt.Errorf("-scale must be in (0, 1] and -trace 0 or 1"))
	}
	names := workloadNames
	if o.workload != "" {
		if !sp.workload(o.workload) || workloadIndex(o.workload) < 0 {
			return fatal(fmt.Errorf("unknown workload %q (BENCHMARK.json lists %v)", o.workload, workloadNames))
		}
		names = []string{o.workload}
	}

	installSignalCleanup()
	defer runCleanup()
	defer func() {
		if r := recover(); r != nil {
			runCleanup()
			panic(r)
		}
	}()
	outDir := ".out"
	workDir := filepath.Join(outDir, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fatal(err)
	}
	bin, err := buildDaemon(repoRoot, filepath.Join(outDir, "bin"))
	if err != nil {
		return fatal(err)
	}
	rep := &report{Env: describeEnv(repoRoot, workDir, o.seed, o.seconds, o.scale), Workloads: make(map[string]*workloadReport)}
	fmt.Printf("gridbank bench: seed %d, %.0f s ×%.2f per run, nproc %d, GOMAXPROCS loader %d / daemon %d, %s, commit %s, data dir on %s\n",
		rep.Env.Seed, rep.Env.Seconds, rep.Env.Scale, rep.Env.NProc, rep.Env.LoaderGOMAXPROCS, rep.Env.DaemonGOMAXPROCS,
		rep.Env.GoVersion, rep.Env.Commit, rep.Env.DataDirFS)
	fmt.Printf("closed loop: %d connections × %d callers; %d consumers, %d providers; preload %d items\n",
		numConns, callersPerConn, consumersAt(o.scale), numProviders, scaled(preloadItems, o.scale))

	allCorrect := true
	var last *workloadReport
	for _, name := range names {
		wr, err := measure(sp, o, name, bin, workDir, filepath.Join(outDir, "trace"))
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep.Workloads[name] = wr
		printWorkload(os.Stdout, sp, name, wr)
		allCorrect = allCorrect && wr.Correct
		last = wr
	}
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			return fatal(err)
		}
		fmt.Printf("\nresult written to %s\n", o.out)
	}
	if o.workload != "" {
		// The driver reads exactly the metrics BENCHMARK.json lists for the
		// mode: the gated end-to-end ones untraced, every per-layer one traced.
		metrics := last.PerLayer
		if o.trace == 0 {
			metrics = make(map[string]measured, len(sp.EndToEnd))
			for _, m := range sp.EndToEnd {
				metrics[m.Name] = last.EndToEnd[m.Name]
			}
		}
		fmt.Println(contractLine(last, metrics))
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "bench: FAILED — an operation failed or a conservation / exactly-once / durability check did not hold")
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func scaled(n int, scale float64) int {
	return int(math.Ceil(float64(n) * scale))
}

// consumersAt is the consumer population under -scale: never fewer than
// the loaded phase has callers per connection.
func consumersAt(scale float64) int { return max(callersPerConn, scaled(numConsumers, scale)) }

// measure runs one workload: untraced for the end-to-end metrics, or
// (with -trace 1) traced for the per-layer ones. When all workloads are
// run together, -trace 1 does both.
func measure(sp *spec, o options, name, bin, workDir, traceDir string) (*workloadReport, error) {
	total := time.Duration(o.seconds * o.scale * float64(time.Second))
	cfg := runConfig{
		workload: name, seed: o.seed,
		// Loaded is four times the solo phase.
		solo: total / 5, segment: total * 4 / 5 / numSegments,
		preload:   scaled(preloadItems, o.scale),
		consumers: consumersAt(o.scale),
		tamper:    o.tamper, bin: bin, workDir: workDir, traceDir: traceDir,
	}
	wr := &workloadReport{Correct: true}
	absorb := func(res *result) {
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		if wr.FirstErr == "" {
			wr.FirstErr = res.FirstErr
		}
		wr.Checks = res.Checks
	}
	if o.trace == 0 || o.workload == "" {
		res, err := runWorkload(cfg)
		if err != nil {
			return nil, err
		}
		absorb(res)
		wr.EndToEnd = endToEnd(res)
		if err := sp.cover(wr.EndToEnd); err != nil {
			return nil, err
		}
		if res.TailQuantile != 0.99 {
			wr.Notes = append(wr.Notes, fmt.Sprintf("latency_p99_ms is p%.0f: the loaded phase had too few samples for ten beyond p99", res.TailQuantile*100))
		}
	}
	if o.trace == 1 {
		cfg.trace = true
		res, err := runWorkload(cfg)
		if err != nil {
			return nil, err
		}
		absorb(res)
		size := fullLadder
		size.iters, size.slowIters, size.history = scaled(size.iters, o.scale), scaled(size.slowIters, o.scale), scaled(size.history, o.scale)
		ladderDir, err := os.MkdirTemp(workDir, "ladder-")
		if err != nil {
			return nil, err
		}
		registerDir(ladderDir)
		defer os.RemoveAll(ladderDir)
		l, err := runLadder(name, o.seed, ladderDir, size, res.SoloP50Ms, res.PingP50Us)
		if err != nil {
			return nil, err
		}
		daemonLayers(res, l.m)
		// The run-level numbers BENCHMARK.json does not gate are per-layer
		// metrics under the same names, here from the traced run's own phases.
		for name, v := range endToEnd(res) {
			if _, gated := sp.endToEnd(name); !gated {
				l.m[name] = v.Value
			}
		}
		wr.PerLayer = make(map[string]measured, len(l.m))
		for k, v := range l.m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("per-layer metric %s is %v", k, v)
			}
			wr.PerLayer[k] = measured{Value: v}
		}
		if err := conform(sp.PerLayer, wr.PerLayer); err != nil {
			return nil, err
		}
		wr.SpanFile, wr.Spans, wr.Rungs = res.SpanFile, res.Spans, l.rungs
		if err := writeRungs(filepath.Join(traceDir, name+".ladder.json"), l.rungs); err != nil {
			return nil, err
		}
		for _, c := range l.clamped {
			wr.Notes = append(wr.Notes, "ladder self time came out negative — below what alternating medians resolve — and is reported as 0: "+c)
		}
	}
	return wr, nil
}

func repeatMain(sp *spec, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		return fatal(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return fatal(err)
	}
	regressed, err := compareReports(os.Stdout, sp, a, b)
	if err != nil {
		return fatal(err)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d (metric, workload) pairs regressed\n", regressed)
		return 1
	}
	return 0
}
