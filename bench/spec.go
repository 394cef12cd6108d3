package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// BENCHMARK.json is the contract this program is run under: which
// workloads exist, which metrics each run must report, in which unit,
// which direction is better and how far an end-to-end metric may worsen
// before it counts as a regression. The program reads it rather than
// repeating it, so the two cannot drift apart unnoticed.

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sp.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// validate checks the limits the benchmark contract puts on names,
// units, counts and bounds.
func (sp *spec) validate() error {
	if n := len(sp.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(sp.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(sp.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", sp.RunSeconds)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, group := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > maxBound {
			return fmt.Errorf("metric %s: bound %v, want (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range sp.PerLayer {
		if m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, better lower)")
	}
	return nil
}

func (sp *spec) workload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (sp *spec) endToEnd(name string) (specMetric, bool) {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// measured is one reported number.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`  // quartile distance / median of the segment values behind Value
	Samples int     `json:"samples,omitempty"` // raw observations behind Value
}

// cover checks the run-level numbers of an untraced run against the
// spec and fills in their units: every gated end-to-end metric must have
// been measured, and every number measured must be listed — gated, or
// under the same name among the per-layer metrics (where a metric too
// noisy to gate on this kind of host is kept, see README.md).
func (sp *spec) cover(got map[string]measured) error {
	for _, m := range sp.EndToEnd {
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
	}
	for name, v := range got {
		m, ok := sp.endToEnd(name)
		for i := 0; !ok && i < len(sp.PerLayer); i++ {
			m, ok = sp.PerLayer[i], sp.PerLayer[i].Name == name
		}
		if !ok {
			return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
		v.Unit = m.Unit
		got[name] = v
	}
	return nil
}

// conform checks that got holds exactly the metrics the spec lists, and
// fills in their units.
func conform(list []specMetric, got map[string]measured) error {
	for _, m := range list {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		v.Unit = m.Unit
		got[m.Name] = v
	}
	if len(got) != len(list) {
		for name := range got {
			found := false
			for _, m := range list {
				found = found || m.Name == name
			}
			if !found {
				return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
			}
		}
	}
	return nil
}
