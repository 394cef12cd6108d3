package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// The micropay experiment measures the streaming GridHash fast path on
// the durable journal path against the flow the paper's §5.2 implies
// for pay-as-you-go: one synchronous RedeemChain RPC per chain tick —
// re-verifying the chain signature and paying the full per-transaction
// fsync chain every word. The fast path batches T ticks per claim,
// verifies preimages incrementally against the session anchor, and
// coalesces many claims per (shard, drawer) into one group-committed
// redemption transaction.
//
// Methodology: baseline and pipeline rounds are interleaved (B C B C …
// with the order flipped every cell) so environmental drift — shared
// disk, CPU frequency, noisy neighbours — lands on both sides; the
// reported baseline is the median across all interleaved rounds. Every
// pipeline cell asserts exactly-once settlement (each payee holds
// exactly ticks × perWord) and exact conservation (total balances and
// 2PC escrow unchanged), then runs a crash round: more claims, the
// pipeline killed at a settle boundary, every store rebooted from its
// journal, the same batch re-submitted, and both asserts re-checked.

// MicropayExpConfig parameterizes RunMicropay.
type MicropayExpConfig struct {
	// Chains is the number of concurrent payment streams per cell
	// (default 4).
	Chains int
	// TicksPerChain is how many chain words each stream covers
	// (default 4096).
	TicksPerChain int
	// ClaimIntervals sweeps T, the ticks carried per claim (default 16, 64).
	ClaimIntervals []int
	// BatchSizes sweeps claims per redemption batch (default 64).
	BatchSizes []int
	// ShardCounts sweeps ledger shards (default 1, 2).
	ShardCounts []int
	// Workers is the pipeline's settlement worker count (default 2).
	Workers int
	// BaselineTicks sizes each interleaved naive round: that many
	// synchronous per-tick RedeemChain calls (default 128).
	BaselineTicks int
	// CrashTicks is the extra stream driven through the per-cell crash
	// round (default 48, claimed every 8 ticks).
	CrashTicks int
	// Dir holds the journals; defaults to a fresh temp directory.
	Dir string
}

// MicropayPoint is one measured pipeline cell.
type MicropayPoint struct {
	Shards        int           `json:"shards"`
	ClaimInterval int           `json:"claim_interval"`
	BatchSize     int           `json:"batch_size"`
	Chains        int           `json:"chains"`
	Ticks         int           `json:"ticks"`
	Claims        int           `json:"claims"`
	Elapsed       time.Duration `json:"elapsed"`
	TicksPerSec   float64       `json:"ticks_per_sec"`
	Batches       uint64        `json:"batches"` // redemption transactions used
	CrossShard    uint64        `json:"cross_shard"`
	Speedup       float64       `json:"speedup_vs_naive"`
}

// MicropayResult is the full sweep.
type MicropayResult struct {
	BaselineTicks  int
	BaselinePerSec float64   // median of the interleaved rounds
	BaselineRounds []float64 // every interleaved measurement
	Points         []MicropayPoint
}

// RunMicropay sweeps the streaming pipeline against interleaved naive
// baselines.
func RunMicropay(cfg MicropayExpConfig) (*MicropayResult, error) {
	if cfg.Chains <= 0 {
		cfg.Chains = 4
	}
	if cfg.TicksPerChain <= 0 {
		cfg.TicksPerChain = 4096
	}
	if len(cfg.ClaimIntervals) == 0 {
		cfg.ClaimIntervals = []int{16, 64}
	}
	if len(cfg.BatchSizes) == 0 {
		cfg.BatchSizes = []int{64}
	}
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = []int{1, 2}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.BaselineTicks <= 0 {
		cfg.BaselineTicks = 128
	}
	if cfg.CrashTicks <= 0 {
		cfg.CrashTicks = 48
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "gridbank-micropay")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	res := &MicropayResult{BaselineTicks: cfg.BaselineTicks}
	type cellKey struct{ shards, interval, batch int }
	var cells []cellKey
	for _, shards := range cfg.ShardCounts {
		for _, interval := range cfg.ClaimIntervals {
			for _, batch := range cfg.BatchSizes {
				cells = append(cells, cellKey{shards, interval, batch})
			}
		}
	}
	// Interleave: odd cells run baseline-then-pipeline, even cells
	// pipeline-then-baseline, plus one trailing baseline so both sides
	// see every phase of the run.
	for i, c := range cells {
		runBaseline := func() error {
			b, err := runMicropayBaseline(cfg, i)
			if err != nil {
				return fmt.Errorf("micropay baseline round %d: %w", i, err)
			}
			res.BaselineRounds = append(res.BaselineRounds, b)
			return nil
		}
		runCell := func() error {
			pt, err := runMicropayCell(cfg, c.shards, c.interval, c.batch, i)
			if err != nil {
				return fmt.Errorf("micropay cell shards=%d interval=%d batch=%d: %w", c.shards, c.interval, c.batch, err)
			}
			res.Points = append(res.Points, *pt)
			return nil
		}
		order := []func() error{runBaseline, runCell}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, f := range order {
			if err := f(); err != nil {
				return nil, err
			}
		}
	}
	sorted := append([]float64(nil), res.BaselineRounds...)
	sort.Float64s(sorted)
	res.BaselinePerSec = sorted[len(sorted)/2]
	for i := range res.Points {
		res.Points[i].Speedup = res.Points[i].TicksPerSec / res.BaselinePerSec
	}
	return res, nil
}

// runMicropayBaseline measures the naive flow on the durable path: a
// full bank (trust store, signed chain issuance), then one synchronous
// RedeemChain per tick — signature verification plus an fsynced ledger
// transaction per word.
func runMicropayBaseline(cfg MicropayExpConfig, round int) (float64, error) {
	ca, trust, bankID, err := newVO("VO-X")
	if err != nil {
		return 0, err
	}
	gspID, err := ca.Issue(pki.IssueOptions{CommonName: "gsp", Organization: "VO-X"})
	if err != nil {
		return 0, err
	}
	journal, err := db.OpenFileJournal(filepath.Join(cfg.Dir, fmt.Sprintf("baseline-%02d.wal", round)), true)
	if err != nil {
		return 0, err
	}
	store, err := db.Open(journal)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	const admin = "CN=micropay-admin"
	bank, err := core.NewBank(store, core.BankConfig{Identity: bankID, Trust: trust, Admins: []string{admin}})
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
		AccountID: consumer.Account.AccountID, Amount: currency.FromG(10),
	}); err != nil {
		return 0, err
	}
	resp, err := bank.RequestChain("CN=consumer", &core.RequestChainRequest{
		AccountID: consumer.Account.AccountID,
		PayeeCert: gspID.SubjectName(),
		Length:    cfg.BaselineTicks,
		PerWord:   currency.FromMicro(100),
		TTL:       time.Hour,
	})
	if err != nil {
		return 0, err
	}
	chain := &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}
	words := make([][]byte, cfg.BaselineTicks+1)
	for i := 1; i <= cfg.BaselineTicks; i++ {
		if words[i], err = chain.Word(i); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 1; i <= cfg.BaselineTicks; i++ {
		if _, err := bank.RedeemChain(gspID.SubjectName(), &core.RedeemChainRequest{
			Chain: resp.Chain,
			Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: i, Word: words[i]},
		}); err != nil {
			return 0, fmt.Errorf("tick %d: %w", i, err)
		}
	}
	return float64(cfg.BaselineTicks) / time.Since(start).Seconds(), nil
}

// micropayStream is one issued chain with its words precomputed.
type micropayStream struct {
	chain *payment.Chain
	payee accounts.ID
	cert  string
	words [][]byte
}

// issueStream locks the chain total against the drawer and registers
// the chain row — what RequestChain does, without the signature layer
// the pipeline never re-reads.
func issueStream(w *cellWorld, drawer accounts.ID, drawerCert, payeeCert string, payee accounts.ID, ticks int) (*micropayStream, error) {
	chain, err := payment.NewChain(drawer, drawerCert, payeeCert,
		ticks, currency.FromMicro(100), currency.GridDollar, time.Now(), time.Hour)
	if err != nil {
		return nil, err
	}
	total, err := chain.Commitment.Total()
	if err != nil {
		return nil, err
	}
	if err := w.n.Ledger().CheckFunds(drawer, total); err != nil {
		return nil, err
	}
	if err := w.n.Bank().ChainRedeemer().Put(&micropay.ChainRow{Commitment: chain.Commitment, State: micropay.StateOutstanding}); err != nil {
		return nil, err
	}
	s := &micropayStream{chain: chain, payee: payee, cert: payeeCert, words: make([][]byte, ticks+1)}
	for i := 1; i <= ticks; i++ {
		if s.words[i], err = chain.Word(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func runMicropayCell(cfg MicropayExpConfig, shards, interval, batch, cellNo int) (*MicropayPoint, error) {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("cell-%02d", cellNo))
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	claims := cfg.Chains * (cfg.TicksPerChain / interval)
	w, err := newCellWorld(dir, shards)
	if err != nil {
		return nil, err
	}
	w.cfg.Micropay = &micropay.Config{
		BatchSize:     batch,
		Workers:       cfg.Workers,
		MaxPending:    claims + cfg.CrashTicks + 16,
		RetryInterval: time.Millisecond,
		CrashHook:     func(b micropay.Boundary, _ string) error { return w.crashAt(b == micropay.BoundarySettled) },
	}
	if err := w.reboot(); err != nil {
		return nil, err
	}
	defer func() { w.n.Close() }()

	drawer, err := w.n.Ledger().CreateAccount("CN=mp-consumer", "VO-X", "")
	if err != nil {
		return nil, err
	}
	if err := w.n.Ledger().Deposit(drawer.AccountID, currency.FromG(100)); err != nil {
		return nil, err
	}
	streams := make([]*micropayStream, cfg.Chains)
	for i := range streams {
		cert := fmt.Sprintf("CN=mp-gsp-%d", i)
		a, err := w.n.Ledger().CreateAccount(cert, "VO-X", "")
		if err != nil {
			return nil, err
		}
		streams[i], err = issueStream(w, drawer.AccountID, "CN=mp-consumer", cert, a.AccountID, cfg.TicksPerChain)
		if err != nil {
			return nil, err
		}
	}
	before, err := w.n.Ledger().TotalBalance()
	if err != nil {
		return nil, err
	}

	// The measured run: all streams tick concurrently (round-robin
	// interleave), a claim every `interval` ticks, submitted in
	// wire-sized chunks while the workers settle behind the intake.
	start := time.Now()
	chunk := make(map[int][]micropay.Claim, cfg.Chains)
	flush := func() error {
		for si, cs := range chunk {
			if len(cs) == 0 {
				continue
			}
			res, err := w.n.Micropay().Submit(streams[si].cert, cs)
			if err != nil {
				return err
			}
			if len(res.Rejected) > 0 {
				return fmt.Errorf("unexpected rejections: %+v", res.Rejected)
			}
			chunk[si] = cs[:0]
		}
		return nil
	}
	queued := 0
	for idx := interval; idx <= cfg.TicksPerChain; idx += interval {
		for si, s := range streams {
			chunk[si] = append(chunk[si], micropay.Claim{
				Serial: s.chain.Commitment.Serial, Index: idx, Word: s.words[idx],
			})
			queued++
		}
		if queued >= 256 {
			if err := flush(); err != nil {
				return nil, err
			}
			queued = 0
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	st, err := w.n.Micropay().Drain(5 * time.Minute)
	if err != nil {
		return nil, fmt.Errorf("drain: %v (stats %+v)", err, st)
	}
	elapsed := time.Since(start)
	wantTicks := uint64(cfg.Chains * (cfg.TicksPerChain / interval) * interval)
	if st.SettledTicks != wantTicks || st.Failed != 0 {
		return nil, fmt.Errorf("settled %d of %d ticks (failed %d)", st.SettledTicks, wantTicks, st.Failed)
	}
	batches, crossShard := st.Batches, st.CrossShard
	if err := assertMicropayCell(w, streams, before); err != nil {
		return nil, err
	}

	// Crash round: a fresh stream, killed at the first settle boundary
	// (persistent death), every store rebooted from its journal, the
	// same claims re-submitted by an at-least-once payee, recovery
	// drained, and the books re-asserted.
	crashCert := "CN=mp-gsp-crash"
	ca, err := w.n.Ledger().CreateAccount(crashCert, "VO-X", "")
	if err != nil {
		return nil, err
	}
	crash, err := issueStream(w, drawer.AccountID, "CN=mp-consumer", crashCert, ca.AccountID, cfg.CrashTicks)
	if err != nil {
		return nil, err
	}
	var crashClaims []micropay.Claim
	for idx := 8; idx <= cfg.CrashTicks; idx += 8 {
		crashClaims = append(crashClaims, micropay.Claim{
			Serial: crash.chain.Commitment.Serial, Index: idx, Word: crash.words[idx],
		})
	}
	w.armed.Store(true)
	if _, err := w.n.Micropay().Submit(crashCert, crashClaims); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !w.died.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !w.died.Load() {
		return nil, errors.New("crash round never reached a settle boundary")
	}
	w.armed.Store(false)
	w.died.Store(false)
	if err := w.reboot(); err != nil {
		return nil, err
	}
	if _, err := w.n.Micropay().Submit(crashCert, crashClaims); err != nil {
		return nil, err
	}
	if st, err = w.n.Micropay().Drain(5 * time.Minute); err != nil {
		return nil, fmt.Errorf("post-crash drain: %v (stats %+v)", err, st)
	}
	if st.Failed != 0 {
		return nil, fmt.Errorf("post-crash failures: %+v", st)
	}
	crashWant := currency.FromMicro(int64(100 * (cfg.CrashTicks / 8 * 8)))
	got, err := w.n.Ledger().Details(ca.AccountID)
	if err != nil {
		return nil, err
	}
	if got.AvailableBalance != crashWant {
		return nil, fmt.Errorf("crash round exactly-once violated: payee holds %s, want %s", got.AvailableBalance, crashWant)
	}
	if err := assertMicropayCell(w, streams, before); err != nil {
		return nil, fmt.Errorf("after crash recovery: %w", err)
	}

	return &MicropayPoint{
		Shards:        shards,
		ClaimInterval: interval,
		BatchSize:     batch,
		Chains:        cfg.Chains,
		Ticks:         int(wantTicks),
		Claims:        claims,
		Elapsed:       elapsed,
		TicksPerSec:   float64(wantTicks) / elapsed.Seconds(),
		Batches:       batches,
		CrossShard:    crossShard,
	}, nil
}

// assertMicropayCell checks exactly-once (each payee holds exactly its
// stream's ticks × perWord) and exact conservation (total balances and
// pending escrow unchanged by settlement).
func assertMicropayCell(w *cellWorld, streams []*micropayStream, before currency.Amount) error {
	for _, s := range streams {
		a, err := w.n.Ledger().Details(s.payee)
		if err != nil {
			return err
		}
		ticks := s.chain.Commitment.Length
		want := currency.FromMicro(int64(100 * ticks))
		if a.AvailableBalance != want {
			return fmt.Errorf("exactly-once violated: %s holds %s, want %s", s.cert, a.AvailableBalance, want)
		}
	}
	total, err := w.n.Ledger().TotalBalance()
	if err != nil {
		return err
	}
	if total != before {
		return fmt.Errorf("conservation violated: %s -> %s", before, total)
	}
	esc, err := w.n.Ledger().PendingEscrow()
	if err != nil {
		return err
	}
	if !esc.IsZero() {
		return fmt.Errorf("escrow residue %s", esc)
	}
	return nil
}

// WriteMicropay renders the sweep.
func WriteMicropay(w io.Writer, r *MicropayResult) {
	fmt.Fprintf(w, "Streaming GridHash micropayments vs naive per-tick RedeemChain (durable path)\n")
	fmt.Fprintf(w, "naive baseline: %.0f ticks/sec (median of %d interleaved rounds of %d sync redemptions; every cell asserts exactly-once + conservation, incl. after injected crash + reboot)\n\n",
		r.BaselinePerSec, len(r.BaselineRounds), r.BaselineTicks)
	t := &Table{Header: []string{"shards", "ticks/claim", "batch", "chains", "ticks", "claims", "ledger txs", "cross", "ticks/sec", "speedup"}}
	for _, p := range r.Points {
		t.Add(p.Shards, p.ClaimInterval, p.BatchSize, p.Chains, p.Ticks, p.Claims, p.Batches, p.CrossShard,
			fmt.Sprintf("%.0f", p.TicksPerSec), fmt.Sprintf("%.0fx", p.Speedup))
	}
	t.Write(w)
}
