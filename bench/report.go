package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment records what a result was measured on, so two result
// files can be told apart before they are compared.
type environment struct {
	Seed             uint64  `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Scale            float64 `json:"scale"`
	NProc            int     `json:"nproc"`
	LoaderGOMAXPROCS int     `json:"loader_gomaxprocs"`
	DaemonGOMAXPROCS int     `json:"daemon_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	DataDirFS        string  `json:"data_dir_filesystem"`
	Conns            int     `json:"connections"`
	Callers          int     `json:"callers"`
}

// workloadReport is everything reported for one workload.
type workloadReport struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	FirstErr  string              `json:"first_error,omitempty"`
	Checks    []check             `json:"checks"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
	Notes     []string            `json:"notes,omitempty"`
	SpanFile  string              `json:"span_file,omitempty"`
	Spans     int                 `json:"spans,omitempty"`
	Rungs     []rung              `json:"ladder_rungs,omitempty"`
}

// report is the result file -out writes and -repeat reads.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func describeEnv(repoRoot, workDir string, seed uint64, seconds, scale float64) environment {
	env := environment{
		Seed: seed, Seconds: seconds, Scale: scale,
		NProc:            runtime.NumCPU(),
		LoaderGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: runtime.GOMAXPROCS(0), // the child inherits the same CPUs and the same GOMAXPROCS variable
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		DataDirFS:        filesystemOf(workDir),
		Conns:            numConns,
		Callers:          numCallers,
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// filesystemOf names the filesystem a directory lives on.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0xf2f52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// printMetrics writes one table of metrics in spec order.
func printMetrics(w io.Writer, list []specMetric, got map[string]measured) {
	for _, m := range list {
		v := got[m.Name]
		line := fmt.Sprintf("  %-40s %16.4f %-6s", m.Name, v.Value, m.Unit)
		if v.Samples > 1 || v.Spread > 0 {
			line += fmt.Sprintf("  spread %5.1f%%  n=%d", v.Spread*100, v.Samples)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf("  (bound %.0f%%, %s is better)", m.Bound*100, m.Better)
		}
		fmt.Fprintln(w, line)
	}
}

func printWorkload(w io.Writer, sp *spec, name string, r *workloadReport) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstErr)
	}
	for _, c := range r.Checks {
		if c.Err != "" {
			fmt.Fprintf(w, "  FAIL %s: %s\n", c.Name, c.Err)
		} else {
			fmt.Fprintf(w, "  ok   %s\n", c.Name)
		}
	}
	if r.EndToEnd != nil {
		fmt.Fprintln(w, " end-to-end (gated by BENCHMARK.json):")
		printMetrics(w, sp.EndToEnd, r.EndToEnd)
		var rest []specMetric
		for _, m := range sp.PerLayer {
			if _, ok := r.EndToEnd[m.Name]; ok {
				rest = append(rest, m)
			}
		}
		fmt.Fprintln(w, " end-to-end (reported, too noisy on a shared host to gate):")
		printMetrics(w, rest, r.EndToEnd)
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, " per-layer (traced run; %d spans in %s):\n", r.Spans, r.SpanFile)
		printMetrics(w, sp.PerLayer, r.PerLayer)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// contractLine is the one-line JSON result the benchmark driver reads
// from the end of standard output.
func contractLine(r *workloadReport, metrics map[string]measured) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]mv, len(metrics))}
	for name, m := range metrics {
		out.Metrics[name] = mv{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // floats, strings and bools; NaN and Inf are rejected before this is called
	}
	return string(raw)
}
