// Command experiments regenerates every figure and quantified claim of
// the GridBank paper; each id's description names the figure or section
// it reproduces. Systems numbers (throughput, fsyncs, WAL bytes) come
// from bench/, not from here.
//
//	experiments -exp all          # run everything
//	experiments -exp fig4         # one experiment
//	experiments -list             # list experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"gridbank/internal/experiments"
)

type experiment struct {
	id   string
	desc string
	run  func() error
}

func registry(out io.Writer) []experiment {
	return []experiment{
		{"fig1", "Figure 1: end-to-end Grid accounting use case", func() error {
			r, err := experiments.RunFig1(experiments.Fig1Config{})
			if err != nil {
				return err
			}
			experiments.WriteFig1(out, r)
			return nil
		}},
		{"fig2", "Figure 2: GSP metering/charging pipeline", func() error {
			r, err := experiments.RunFig2()
			if err != nil {
				return err
			}
			experiments.WriteFig2(out, r)
			return nil
		}},
		{"fig3", "Figure 3: payment protocols through the 3-layer server", func() error {
			r, err := experiments.RunFig3(experiments.Fig3Config{})
			if err != nil {
				return err
			}
			experiments.WriteFig3(out, r)
			return nil
		}},
		{"fig4", "Figure 4: co-operative resource sharing", func() error {
			r, err := experiments.RunFig4(experiments.Fig4Config{})
			if err != nil {
				return err
			}
			experiments.WriteFig4(out, r)
			return nil
		}},
		{"scalability", "§2.3: template-account access scalability", func() error {
			r, err := experiments.RunScalability(experiments.ScalabilityConfig{})
			if err != nil {
				return err
			}
			experiments.WriteScalability(out, r)
			return nil
		}},
		{"guarantee", "§3.4: payment guarantee via fund locking", func() error {
			r, err := experiments.RunGuarantee(experiments.GuaranteeConfig{})
			if err != nil {
				return err
			}
			experiments.WriteGuarantee(out, r)
			return nil
		}},
		{"policies", "§3.1: the three charging policies", func() error {
			r, err := experiments.RunPolicies()
			if err != nil {
				return err
			}
			experiments.WritePolicies(out, r)
			return nil
		}},
		{"estimate", "§4.2: competitive price estimation", func() error {
			r, err := experiments.RunEstimate(experiments.EstimateConfig{})
			if err != nil {
				return err
			}
			experiments.WriteEstimate(out, r)
			return nil
		}},
		{"equilibrium", "§4.1: price equilibrium regulation", func() error {
			r, err := experiments.RunEquilibrium(experiments.EquilibriumConfig{})
			if err != nil {
				return err
			}
			experiments.WriteEquilibrium(out, r)
			return nil
		}},
		{"branches", "§6: multi-branch settlement", func() error {
			r, err := experiments.RunBranches(experiments.BranchesConfig{})
			if err != nil {
				return err
			}
			experiments.WriteBranches(out, r)
			return nil
		}},
		{"pricing", "§1: supply-and-demand price regulation", func() error {
			r, err := experiments.RunPricing(experiments.PricingConfig{})
			if err != nil {
				return err
			}
			experiments.WritePricing(out, r)
			return nil
		}},
		{"broker", "Figure 1 (Grid Resource Broker): Nimrod-G deadline/budget-constrained scheduling sweep", func() error {
			r, err := experiments.RunDBC(experiments.DBCConfig{})
			if err != nil {
				return err
			}
			experiments.WriteDBC(out, r)
			return nil
		}},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp  = fs.String("exp", "all", "experiment id (or 'all')")
		list = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := registry(out)
	if *list {
		ids := make([]string, 0, len(reg))
		for _, e := range reg {
			ids = append(ids, fmt.Sprintf("%-12s %s", e.id, e.desc))
		}
		sort.Strings(ids)
		for _, s := range ids {
			fmt.Fprintln(out, s)
		}
		return nil
	}
	ran := false
	for _, e := range reg {
		if *exp != "all" && e.id != *exp {
			continue
		}
		ran = true
		fmt.Fprintf(out, "==== %s: %s ====\n\n", e.id, e.desc)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	return nil
}
