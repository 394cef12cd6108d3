package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/broker"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/gmd"
	"gridbank/internal/gridsim"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
)

// Fig1Config parameterizes the Figure 1 end-to-end scenario.
type Fig1Config struct {
	Consumers       int   // default 8
	JobsPerConsumer int   // default 12
	Seed            int64 // workload seed
}

func (c *Fig1Config) defaults() {
	if c.Consumers <= 0 {
		c.Consumers = 8
	}
	if c.JobsPerConsumer <= 0 {
		c.JobsPerConsumer = 12
	}
}

// Fig1Report is the outcome of the Figure 1 use case.
type Fig1Report struct {
	JobsCompleted int
	JobsPlanned   int
	TotalCharged  currency.Amount
	// PerProvider earnings, per-consumer spend.
	ProviderEarned map[string]currency.Amount
	ConsumerSpent  map[string]currency.Amount
	// MoneyConserved: total balances before == after (the ledger-level
	// invariant the whole architecture exists to provide).
	MoneyConserved bool
	Makespan       time.Duration
}

// RunFig1 reproduces the paper's Figure 1 interaction: GSPs and GSCs open
// accounts with GridBank; consumers submit QoS-constrained work to the
// broker; the broker discovers providers in the market directory,
// establishes rates with each GTS, and submits jobs with GridCheques
// purchased from the bank; each GSP's Grid Resource Meter measures usage;
// the charging module prices the RUR against the agreed rates and redeems
// the cheque, transferring funds to the GSP account.
func RunFig1(cfg Fig1Config) (*Fig1Report, error) {
	cfg.defaults()
	w, err := NewWorld()
	if err != nil {
		return nil, err
	}
	sim := gridsim.New(w.Clock.Now())

	// Four heterogeneous providers: faster hardware posts higher prices.
	type gspDef struct {
		name   string
		nodes  int
		rating int
		num    int64 // price multiplier numerator (den 2)
	}
	// Per-job cost (∝ price/rating) strictly decreases with slowness, so
	// the cost-conscious broker fills slow-cheap capacity first and
	// spills toward fast-expensive iron only as the deadline forces it —
	// the supply/demand texture of §1.
	defs := []gspDef{
		{"gsp-fast", 8, 1600, 16},
		{"gsp-mid1", 8, 800, 6},
		{"gsp-mid2", 8, 600, 4},
		{"gsp-slow", 8, 400, 2},
	}
	directory := gmd.New(w.Clock.Now)
	providers := make(map[string]*Provider, len(defs))
	resources := make(map[string]*gridsim.Resource, len(defs))
	for _, d := range defs {
		// Time-based items price proportionally to hardware speed (a job
		// costs about the same CPU-money anywhere; it just finishes
		// sooner on fast iron); network traffic is priced identically
		// everywhere.
		rates := ScaledRates(d.num, 2)
		rates[rur.ItemNetwork] = StandardRates()[rur.ItemNetwork]
		p, err := w.NewProvider(d.name, rates, 16)
		if err != nil {
			return nil, err
		}
		providers[p.Identity.SubjectName()] = p
		r, err := sim.AddResource(gridsim.ResourceConfig{
			Provider: p.Identity.SubjectName(), Host: d.name + ".grid", Nodes: d.nodes, RatingMIPS: d.rating,
		})
		if err != nil {
			return nil, err
		}
		resources[p.Identity.SubjectName()] = r
		if err := directory.Register(gmd.Advertisement{
			Provider:  p.Identity.SubjectName(),
			Address:   d.name + ".grid:9000",
			CPURating: d.rating,
			Nodes:     d.nodes,
			Rates:     p.GTS.CurrentRates().Rates,
		}); err != nil {
			return nil, err
		}
	}

	before, err := w.Bank.Ledger().TotalBalance()
	if err != nil {
		return nil, err
	}

	report := &Fig1Report{
		ProviderEarned: make(map[string]currency.Amount),
		ConsumerSpent:  make(map[string]currency.Amount),
	}
	var runErr error
	fail := func(err error) {
		if runErr == nil && err != nil {
			runErr = err
		}
	}

	// Consumers enrol, discover providers in the directory and conclude a
	// rate agreement with each GTS.
	type consumer struct {
		id         *pki.Identity
		acct       accounts.ID
		agreements map[string]string // provider -> agreement ID
	}
	consumers := make(map[string]*consumer, cfg.Consumers)
	var allJobs []gridsim.Job
	ads := directory.Find(gmd.Query{MinCPURating: 1})
	var candidates []broker.Candidate
	for ci := 0; ci < cfg.Consumers; ci++ {
		name := fmt.Sprintf("consumer-%02d", ci)
		id, acct, err := w.NewActor(name, currency.FromG(500))
		if err != nil {
			return nil, err
		}
		c := &consumer{id: id, acct: acct, agreements: make(map[string]string)}
		for _, ad := range ads {
			p := providers[ad.Provider]
			ag, err := p.GTS.Agree(id.SubjectName())
			if err != nil {
				return nil, err
			}
			c.agreements[ad.Provider] = ag.ID
			if ci == 0 {
				candidates = append(candidates, broker.Candidate{
					Provider:    ad.Provider,
					Nodes:       ad.Nodes,
					RatingMIPS:  ad.CPURating,
					Rates:       &ag.Card,
					AgreementID: ag.ID,
				})
			}
		}
		consumers[id.SubjectName()] = c
		allJobs = append(allJobs, gridsim.Bag(gridsim.BagOptions{
			Owner:        id.SubjectName(),
			Application:  "param-sweep",
			N:            cfg.JobsPerConsumer,
			MeanLengthMI: 60_000,
			MemoryMB:     256,
			StorageMB:    50,
			InputMB:      10,
			OutputMB:     10,
			Seed:         cfg.Seed + int64(ci),
			IDPrefix:     name,
		})...)
	}

	// One shared broker pass schedules the whole community's workload
	// (all consumers quote the same posted rates, so the capacity view
	// is common): cost-conscious with a deadline tight enough that the
	// cheap-slow provider alone cannot absorb everything.
	plan, err := broker.Schedule(allJobs, candidates, broker.QoS{
		Deadline: 10 * time.Minute,
		Budget:   currency.FromG(400 * int64(cfg.Consumers)),
	}, broker.CostTime)
	if err != nil {
		return nil, fmt.Errorf("fig1: community plan: %w", err)
	}
	report.JobsPlanned = len(plan.Assignments)

	// Execute: per job, the owner buys a cheque (2× estimate headroom
	// against workload jitter), the GSP admits it onto a template
	// account, the simulator runs it, the meter converts the raw usage
	// and the GBCM settles against the owner's agreed rates.
	for _, a := range plan.Assignments {
		a := a
		p := providers[a.Provider]
		c := consumers[a.Job.Owner]
		budget := a.EstCost.MustAdd(a.EstCost)
		if budget.IsZero() {
			budget = currency.FromG(1)
		}
		chequeResp, err := w.Bank.RequestCheque(c.id.SubjectName(), &core.RequestChequeRequest{
			AccountID: c.acct,
			Amount:    budget,
			PayeeCert: a.Provider,
			TTL:       24 * time.Hour,
		})
		if err != nil {
			return nil, fmt.Errorf("fig1: cheque for %s: %w", a.Job.ID, err)
		}
		if _, err := p.GBCM.AdmitCheque(a.Job.ID, &chequeResp.Cheque); err != nil {
			return nil, fmt.Errorf("fig1: admit %s: %w", a.Job.ID, err)
		}
		agID := c.agreements[a.Provider]
		if err := resources[a.Provider].Submit(a.Job, func(res gridsim.JobResult) {
			w.Clock.Set(res.End)
			rec, err := p.Meter.Convert(res)
			if err != nil {
				fail(err)
				return
			}
			ag, ok := p.GTS.Lookup(agID)
			if !ok {
				fail(fmt.Errorf("fig1: lost agreement %s", agID))
				return
			}
			result, err := p.GBCM.SettleCheque(res.Job.ID, rec, &ag.Card)
			if err != nil {
				fail(fmt.Errorf("fig1: settle %s: %w", res.Job.ID, err))
				return
			}
			paid, err := currency.Parse(result.Paid)
			if err != nil {
				fail(err)
				return
			}
			report.JobsCompleted++
			report.TotalCharged = report.TotalCharged.MustAdd(paid)
			report.ProviderEarned[a.Provider] = report.ProviderEarned[a.Provider].MustAdd(paid)
			report.ConsumerSpent[rec.User.CertificateName] = report.ConsumerSpent[rec.User.CertificateName].MustAdd(paid)
		}); err != nil {
			return nil, err
		}
	}

	start := sim.Now()
	sim.Run()
	if runErr != nil {
		return nil, runErr
	}
	report.Makespan = sim.Now().Sub(start)

	after, err := w.Bank.Ledger().TotalBalance()
	if err != nil {
		return nil, err
	}
	report.MoneyConserved = before.MustAdd(currency.FromG(int64(cfg.Consumers)*500)) == after
	return report, nil
}

// WriteFig1 renders the report.
func WriteFig1(w io.Writer, r *Fig1Report) {
	fmt.Fprintf(w, "Figure 1 — end-to-end Grid accounting use case\n")
	fmt.Fprintf(w, "jobs planned %d, completed %d; makespan %v; total charged %s G$; money conserved: %v\n\n",
		r.JobsPlanned, r.JobsCompleted, r.Makespan, r.TotalCharged, r.MoneyConserved)
	t := &Table{Header: []string{"provider", "earned (G$)"}}
	for _, p := range sortedKeys(r.ProviderEarned) {
		t.Add(p, r.ProviderEarned[p])
	}
	t.Write(w)
	fmt.Fprintln(w)
	t2 := &Table{Header: []string{"consumer", "spent (G$)"}}
	for _, c := range sortedKeys(r.ConsumerSpent) {
		t2.Add(c, r.ConsumerSpent[c])
	}
	t2.Write(w)
}

func sortedKeys(m map[string]currency.Amount) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
