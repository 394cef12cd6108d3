package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/charging"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// The usage experiment measures the batched asynchronous settlement
// pipeline on the durable path (fsync-per-commit journals), swept over
// batch size × worker count × shard count, against the naive baseline
// the paper's flow implies: one synchronous SettleCheque per RUR. Every
// cell asserts exactly-once settlement (the recipient pool is credited
// exactly once per job) and exact conservation — including a crash
// round per cell that abandons the pipeline mid-settlement, reboots
// every store from its journal, and re-drives recovery.

// UsageExpConfig parameterizes RunUsage.
type UsageExpConfig struct {
	// BatchSizes sweeps charges-per-ledger-transaction (default 1, 16, 64, 256).
	BatchSizes []int
	// WorkerCounts sweeps settlement workers (default 1, 4).
	WorkerCounts []int
	// ShardCounts sweeps ledger shards (default 1, 2).
	ShardCounts []int
	// Jobs is the number of charges settled per cell (default 256).
	Jobs int
	// CrashJobs is the extra charges run through the per-cell crash
	// round (default 24).
	CrashJobs int
	// BaselineJobs sizes the naive SettleCheque measurement (default 96).
	BaselineJobs int
	// Recipients is the provider-account pool size (default 8).
	Recipients int
	// Dir holds the journals; defaults to a fresh temp directory.
	Dir string
}

// UsagePoint is one measured cell.
type UsagePoint struct {
	Shards     int           `json:"shards"`
	Workers    int           `json:"workers"`
	BatchSize  int           `json:"batch_size"`
	Jobs       int           `json:"jobs"`
	Elapsed    time.Duration `json:"elapsed"`
	PerSec     float64       `json:"per_sec"`
	Batches    uint64        `json:"batches"` // ledger transactions used for same-shard batches
	CrossShard uint64        `json:"cross_shard"`
	Speedup    float64       `json:"speedup_vs_naive"`
}

// UsageResult is the full sweep.
type UsageResult struct {
	BaselineJobs   int
	BaselinePerSec float64
	Points         []UsagePoint
}

// usageExpRates prices one 3600-CPU-second job at exactly 1 G$.
func usageExpRates(provider string) *rur.RateCard {
	rates := map[rur.Item]currency.Rate{rur.ItemCPU: currency.PerHour(currency.Scale)}
	for _, item := range rur.AllItems {
		if _, ok := rates[item]; !ok {
			rates[item] = currency.ZeroRate
		}
	}
	return &rur.RateCard{Provider: provider, Currency: currency.GridDollar, Rates: rates}
}

func usageExpRecord(consumer, provider, jobID string, now time.Time) *rur.Record {
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: consumer},
		Job:      rur.JobDetails{JobID: jobID, Application: "usage-exp", Start: now.Add(-time.Hour), End: now},
		Resource: rur.ResourceDetails{Host: "sim", CertificateName: provider, LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, 3600)
	return rec
}

// RunUsage sweeps the pipeline and measures the naive baseline.
func RunUsage(cfg UsageExpConfig) (*UsageResult, error) {
	if len(cfg.BatchSizes) == 0 {
		cfg.BatchSizes = []int{1, 16, 64, 256}
	}
	if len(cfg.WorkerCounts) == 0 {
		cfg.WorkerCounts = []int{1, 4}
	}
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = []int{1, 2}
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 256
	}
	if cfg.CrashJobs <= 0 {
		cfg.CrashJobs = 24
	}
	if cfg.BaselineJobs <= 0 {
		cfg.BaselineJobs = 96
	}
	if cfg.Recipients <= 0 {
		cfg.Recipients = 8
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "gridbank-usage")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	baseline, err := runUsageBaseline(cfg)
	if err != nil {
		return nil, fmt.Errorf("usage baseline: %w", err)
	}
	res := &UsageResult{BaselineJobs: cfg.BaselineJobs, BaselinePerSec: baseline}
	cell := 0
	for _, shards := range cfg.ShardCounts {
		for _, workers := range cfg.WorkerCounts {
			for _, batch := range cfg.BatchSizes {
				cell++
				pt, err := runUsageCell(cfg, shards, workers, batch, cell)
				if err != nil {
					return nil, fmt.Errorf("usage cell shards=%d workers=%d batch=%d: %w", shards, workers, batch, err)
				}
				pt.Speedup = pt.PerSec / baseline
				res.Points = append(res.Points, *pt)
			}
		}
	}
	return res, nil
}

// runUsageBaseline measures the naive per-RUR flow on the durable path:
// cheques are issued and admitted up front (that is the job-start cost,
// not the settlement cost), then each RUR is priced, signed and
// redeemed with one synchronous SettleCheque — paying the full
// per-transaction fsync chain every job.
func runUsageBaseline(cfg UsageExpConfig) (float64, error) {
	ca, trust, bankID, err := newVO("VO-X")
	if err != nil {
		return 0, err
	}
	gspID, err := ca.Issue(pki.IssueOptions{CommonName: "gsp", Organization: "VO-X"})
	if err != nil {
		return 0, err
	}
	journal, err := db.OpenFileJournal(filepath.Join(cfg.Dir, "baseline.wal"), true)
	if err != nil {
		return 0, err
	}
	store, err := db.Open(journal)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	const admin = "CN=usage-admin"
	bank, err := core.NewBank(store, core.BankConfig{
		Identity: bankID, Trust: trust, Admins: []string{admin},
	})
	if err != nil {
		return 0, err
	}
	consumer, err := bank.CreateAccount("CN=consumer", &core.CreateAccountRequest{})
	if err != nil {
		return 0, err
	}
	if _, err := bank.CreateAccount(gspID.SubjectName(), &core.CreateAccountRequest{}); err != nil {
		return 0, err
	}
	if _, err := bank.AdminDeposit(admin, &core.AdminAmountRequest{
		AccountID: consumer.Account.AccountID, Amount: currency.FromG(int64(2 * cfg.BaselineJobs)),
	}); err != nil {
		return 0, err
	}
	pool, err := charging.NewTemplatePool("grid", 4, nil)
	if err != nil {
		return 0, err
	}
	gbcm, err := charging.NewModule(charging.ModuleConfig{
		Identity: gspID,
		Trust:    trust,
		Pool:     pool,
		Redeemer: &bankRedeemer{bank: bank, subject: gspID.SubjectName()},
	})
	if err != nil {
		return 0, err
	}
	// Issue + admit up front; settlement is the measured phase.
	rates := usageExpRates(gspID.SubjectName())
	for i := 0; i < cfg.BaselineJobs; i++ {
		jobID := fmt.Sprintf("base-%04d", i)
		chq, err := bank.RequestCheque("CN=consumer", &core.RequestChequeRequest{
			AccountID: consumer.Account.AccountID,
			Amount:    currency.FromG(1),
			PayeeCert: gspID.SubjectName(),
			TTL:       time.Hour,
		})
		if err != nil {
			return 0, err
		}
		if _, err := gbcm.AdmitCheque(jobID, &chq.Cheque); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < cfg.BaselineJobs; i++ {
		jobID := fmt.Sprintf("base-%04d", i)
		rec := usageExpRecord("CN=consumer", gspID.SubjectName(), jobID, time.Now())
		if _, err := gbcm.SettleCheque(jobID, rec, rates); err != nil {
			return 0, fmt.Errorf("settle %s: %w", jobID, err)
		}
	}
	elapsed := time.Since(start)
	return float64(cfg.BaselineJobs) / elapsed.Seconds(), nil
}

func runUsageCell(cfg UsageExpConfig, shards, workers, batch, cellNo int) (*UsagePoint, error) {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("cell-%02d", cellNo))
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	w, err := newCellWorld(dir, shards)
	if err != nil {
		return nil, err
	}
	w.cfg.Usage = &usage.Config{
		BatchSize: batch,
		Workers:   workers,
		// The queue must hold a whole cell's jobs: this experiment
		// measures batching, not backpressure.
		MaxPending:    cfg.Jobs + cfg.CrashJobs + 1,
		RetryInterval: time.Millisecond,
		CrashHook:     func(b usage.Boundary, _ string) error { return w.crashAt(b == usage.BoundarySettled) },
	}
	if err := w.reboot(); err != nil {
		return nil, err
	}
	defer func() { w.n.Close() }()

	total := int64(cfg.Jobs + cfg.CrashJobs + 8)
	drawer, err := w.n.Ledger().CreateAccount("CN=usage-consumer", "VO-X", "")
	if err != nil {
		return nil, err
	}
	if err := w.n.Ledger().Deposit(drawer.AccountID, currency.FromG(total)); err != nil {
		return nil, err
	}
	recips := make([]accounts.ID, cfg.Recipients)
	for i := range recips {
		a, err := w.n.Ledger().CreateAccount(fmt.Sprintf("CN=usage-gsp-%d", i), "VO-X", "")
		if err != nil {
			return nil, err
		}
		recips[i] = a.AccountID
	}
	before, err := w.n.Ledger().TotalBalance()
	if err != nil {
		return nil, err
	}
	rates := usageExpRates("CN=usage-gsp")
	submission := func(id string, recip accounts.ID) (usage.Submission, error) {
		raw, err := rur.Encode(usageExpRecord("CN=usage-consumer", "CN=usage-gsp", id, time.Now()), rur.FormatJSON)
		if err != nil {
			return usage.Submission{}, err
		}
		return usage.Submission{ID: id, Drawer: drawer.AccountID, Recipient: recip, RUR: raw, Rates: rates}, nil
	}

	// Phase 1: the measured settlement run.
	subs := make([]usage.Submission, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		s, err := submission(fmt.Sprintf("job-%05d", i), recips[i%len(recips)])
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	start := time.Now()
	for off := 0; off < len(subs); off += 512 {
		end := off + 512
		if end > len(subs) {
			end = len(subs)
		}
		res, err := w.n.Usage().Submit(subs[off:end])
		if err != nil {
			return nil, err
		}
		if len(res.Rejected) > 0 {
			return nil, fmt.Errorf("unexpected rejections: %+v", res.Rejected)
		}
	}
	st, err := w.n.Usage().Drain(5 * time.Minute)
	if err != nil {
		return nil, fmt.Errorf("drain: %v (stats %+v)", err, st)
	}
	elapsed := time.Since(start)
	if st.Settled != uint64(cfg.Jobs) || st.Failed != 0 {
		return nil, fmt.Errorf("settled %d of %d (failed %d)", st.Settled, cfg.Jobs, st.Failed)
	}
	batches, crossShard := st.Batches, st.CrossShard
	if err := assertUsageCell(w.n.Ledger(), recips, cfg.Jobs, before); err != nil {
		return nil, err
	}

	// Phase 2: crash round. Abandon the pipeline at the first settled
	// boundary (persistent death: every later boundary also fails),
	// reboot every store from its journal, recover, and re-assert
	// exactly-once + conservation.
	crash := make([]usage.Submission, 0, cfg.CrashJobs)
	for i := 0; i < cfg.CrashJobs; i++ {
		s, err := submission(fmt.Sprintf("crash-%05d", i), recips[i%len(recips)])
		if err != nil {
			return nil, err
		}
		crash = append(crash, s)
	}
	w.armed.Store(true)
	if _, err := w.n.Usage().Submit(crash); err != nil {
		return nil, err
	}
	// Let settlement run into the crash (or finish the pre-crash work).
	deadline := time.Now().Add(10 * time.Second)
	for !w.died.Load() && time.Now().Before(deadline) {
		if workers == 0 {
			w.n.Usage().SettleOnce()
		}
		time.Sleep(time.Millisecond)
	}
	if !w.died.Load() {
		return nil, errors.New("crash round never reached a settle boundary")
	}
	// The reboot runs disarmed: recovery must settle cleanly.
	w.armed.Store(false)
	w.died.Store(false)
	if err := w.reboot(); err != nil {
		return nil, err
	}
	// Re-submit the same batch post-reboot (an at-least-once producer
	// replaying after the crash) — dedup must absorb every duplicate.
	if _, err := w.n.Usage().Submit(crash); err != nil {
		return nil, err
	}
	if st, err = w.n.Usage().Drain(5 * time.Minute); err != nil {
		return nil, fmt.Errorf("post-crash drain: %v (stats %+v)", err, st)
	}
	if st.Failed != 0 {
		return nil, fmt.Errorf("post-crash failures: %+v", st)
	}
	if err := assertUsageCell(w.n.Ledger(), recips, cfg.Jobs+cfg.CrashJobs, before); err != nil {
		return nil, fmt.Errorf("after crash recovery: %w", err)
	}

	return &UsagePoint{
		Shards:     shards,
		Workers:    workers,
		BatchSize:  batch,
		Jobs:       cfg.Jobs,
		Elapsed:    elapsed,
		PerSec:     float64(cfg.Jobs) / elapsed.Seconds(),
		Batches:    batches,
		CrossShard: crossShard,
	}, nil
}

// assertUsageCell checks exactly-once (the recipient pool holds exactly
// one G$ per settled job — no charge lost, none applied twice) and
// exact conservation (total balances unchanged by settlement).
func assertUsageCell(led *shard.Ledger, recips []accounts.ID, jobs int, before currency.Amount) error {
	var credited currency.Amount
	for _, id := range recips {
		a, err := led.Details(id)
		if err != nil {
			return err
		}
		credited = credited.MustAdd(a.AvailableBalance)
	}
	if want := currency.FromG(int64(jobs)); credited != want {
		return fmt.Errorf("exactly-once violated: recipients hold %s, want %s", credited, want)
	}
	total, err := led.TotalBalance()
	if err != nil {
		return err
	}
	if total != before {
		return fmt.Errorf("conservation violated: %s -> %s", before, total)
	}
	esc, err := led.PendingEscrow()
	if err != nil {
		return err
	}
	if !esc.IsZero() {
		return fmt.Errorf("escrow residue %s", esc)
	}
	return nil
}

// WriteUsage renders the sweep.
func WriteUsage(w io.Writer, r *UsageResult) {
	fmt.Fprintf(w, "Batched async usage settlement vs naive per-RUR SettleCheque (durable path)\n")
	fmt.Fprintf(w, "naive baseline: %.1f settlements/sec over %d jobs (every cell asserts exactly-once + conservation, incl. after injected crash + reboot)\n\n",
		r.BaselinePerSec, r.BaselineJobs)
	t := &Table{Header: []string{"shards", "workers", "batch", "jobs", "ledger txs", "cross", "charges/sec", "speedup"}}
	for _, p := range r.Points {
		t.Add(p.Shards, p.Workers, p.BatchSize, p.Jobs, p.Batches, p.CrossShard,
			fmt.Sprintf("%.0f", p.PerSec), fmt.Sprintf("%.1fx", p.Speedup))
	}
	t.Write(w)
}
