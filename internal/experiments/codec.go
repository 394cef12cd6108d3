package experiments

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/node"
	"gridbank/internal/pki"
	"gridbank/internal/replica"
	"gridbank/internal/wire"
)

// The codec experiment A/Bs the negotiated bin1 formats against the
// seed JSON formats, interleaved in the same time window so host drift
// cancels out:
//
//   - frames: two clients on the same live bank — one offerless (seed
//     JSON frames) and one negotiated to bin1 — alternate identical
//     workloads over one TLS connection each;
//   - journal: the same transfer history is written under each WAL
//     generation, then replayed cold (db.Open is GridBank's startup);
//   - catch-up: a fresh replica bootstraps the same primary history
//     over a JSON-negotiated and a bin1-negotiated stream.
//
// Every cell asserts conservation — summed balances equal deposits —
// through the codec under test, so a decoder bug can't score.

// CodecExpConfig parameterizes RunCodecExp.
type CodecExpConfig struct {
	// Concurrency sweeps callers per client in the frame cells
	// (default 1, 16).
	Concurrency []int
	// OpsPerCaller is the per-caller op count per frame round
	// (default 120).
	OpsPerCaller int
	// Rounds is how many interleaved A/B rounds to average (default 2).
	Rounds int
	// JournalTransfers is the transfer count behind the replay and
	// catch-up cells (default 2000).
	JournalTransfers int
	// Dir holds journal files; defaults to a fresh temp directory.
	Dir string
}

// CodecFramePoint is one frame-throughput cell.
type CodecFramePoint struct {
	Workload    string  `json:"workload"`
	Concurrency int     `json:"concurrency"`
	Ops         int     `json:"ops_per_codec_round"`
	JSONOps     float64 `json:"json_ops_per_sec"`
	BinOps      float64 `json:"bin1_ops_per_sec"`
	Speedup     float64 `json:"speedup"`
}

// CodecJournalPoint is one WAL replay cell.
type CodecJournalPoint struct {
	Entries     uint64  `json:"journal_entries"`
	JSONReplay  float64 `json:"json_replay_ms"`
	BinReplay   float64 `json:"bin1_replay_ms"`
	JSONBytes   int64   `json:"json_bytes"`
	BinBytes    int64   `json:"bin1_bytes"`
	Speedup     float64 `json:"replay_speedup"`
	SizeRatio   float64 `json:"size_ratio"`
	JSONWriteMS float64 `json:"json_write_ms"`
	BinWriteMS  float64 `json:"bin1_write_ms"`
}

// CodecCatchupPoint is one replica catch-up cell.
type CodecCatchupPoint struct {
	Entries uint64  `json:"journal_entries"`
	JSONMS  float64 `json:"json_catchup_ms"`
	BinMS   float64 `json:"bin1_catchup_ms"`
	Speedup float64 `json:"speedup"`
}

// CodecResult is the full sweep.
type CodecResult struct {
	Frames  []CodecFramePoint   `json:"frames"`
	Journal []CodecJournalPoint `json:"journal"`
	Catchup []CodecCatchupPoint `json:"catchup"`
}

// codecClients dials one offerless (seed JSON) and one bin1-negotiated
// client against the world's server.
func codecClients(w *wireWorld) (jsonC, binC *core.Client, err error) {
	jsonC, err = core.Dial(w.addr, w.adminID, w.trust)
	if err != nil {
		return nil, nil, err
	}
	binC, err = core.Dial(w.addr, w.adminID, w.trust)
	if err != nil {
		jsonC.Close()
		return nil, nil, err
	}
	binC.OfferCodecs = []string{wire.CodecBin1, wire.CodecJSON}
	return jsonC, binC, nil
}

// runCodecRound drives concurrency workers for ops calls each through
// one client (one codec).
func runCodecRound(w *wireWorld, c *core.Client, workload string, concurrency, ops int) (float64, error) {
	call := func(worker int) error {
		switch workload {
		case "checkfunds":
			return c.CheckFunds(w.payers[worker], currency.FromMicro(1))
		case "transfer":
			_, err := c.DirectTransfer(w.payers[worker], w.payees[worker], currency.FromMicro(1), "")
			return err
		default: // "details": the JSON long-tail under binary frames
			_, err := c.AccountDetails(w.payers[worker])
			return err
		}
	}
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				if err := call(i); err != nil {
					errs[i] = fmt.Errorf("%s worker %d: %w", workload, i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(concurrency*ops) / elapsed.Seconds(), nil
}

// runCodecFrames sweeps workload × concurrency with interleaved
// json/bin1 rounds on the same world.
func runCodecFrames(cfg CodecExpConfig, res *CodecResult) error {
	maxConc := 0
	for _, c := range cfg.Concurrency {
		if c > maxConc {
			maxConc = c
		}
	}
	w, err := newWireWorld(node.Config{}, maxConc)
	if err != nil {
		return err
	}
	defer w.close()
	jsonC, binC, err := codecClients(w)
	if err != nil {
		return err
	}
	defer jsonC.Close()
	defer binC.Close()

	for _, workload := range []string{"checkfunds", "transfer", "details"} {
		for _, conc := range cfg.Concurrency {
			var j, b float64
			for r := 0; r < cfg.Rounds; r++ {
				jr, err := runCodecRound(w, jsonC, workload, conc, cfg.OpsPerCaller)
				if err != nil {
					return err
				}
				br, err := runCodecRound(w, binC, workload, conc, cfg.OpsPerCaller)
				if err != nil {
					return err
				}
				j += jr
				b += br
			}
			j /= float64(cfg.Rounds)
			b /= float64(cfg.Rounds)
			res.Frames = append(res.Frames, CodecFramePoint{
				Workload:    workload,
				Concurrency: conc,
				Ops:         conc * cfg.OpsPerCaller,
				JSONOps:     j,
				BinOps:      b,
				Speedup:     b / j,
			})
		}
	}
	// Conservation through BOTH codecs: the two views must agree with
	// the deposits and with each other.
	saved := w.client
	defer func() { w.client = saved }()
	for _, c := range []*core.Client{jsonC, binC} {
		w.client = c
		if err := w.assertConservation(); err != nil {
			return err
		}
	}
	return nil
}

// buildCodecLedger writes the canonical transfer history under one WAL
// generation and returns the write duration, entry count, and funded
// total for the conservation assert.
func buildCodecLedger(path, codec string, transfers int) (time.Duration, uint64, currency.Amount, error) {
	j, err := db.OpenFileJournalCodec(path, false, codec)
	if err != nil {
		return 0, 0, 0, err
	}
	store, err := db.Open(j)
	if err != nil {
		return 0, 0, 0, err
	}
	mgr, err := accounts.NewManager(store, accounts.Config{})
	if err != nil {
		store.Close()
		return 0, 0, 0, err
	}
	payer, err := mgr.CreateAccount("CN=codec-payer", "VO-CODEC", "")
	if err != nil {
		store.Close()
		return 0, 0, 0, err
	}
	payee, err := mgr.CreateAccount("CN=codec-payee", "VO-CODEC", "")
	if err != nil {
		store.Close()
		return 0, 0, 0, err
	}
	funded := currency.FromG(1_000_000)
	if err := mgr.Admin().Deposit(payer.AccountID, funded); err != nil {
		store.Close()
		return 0, 0, 0, err
	}
	start := time.Now()
	for i := 0; i < transfers; i++ {
		if _, err := mgr.Transfer(payer.AccountID, payee.AccountID, currency.FromMicro(1), accounts.TransferOptions{}); err != nil {
			store.Close()
			return 0, 0, 0, err
		}
	}
	wrote := time.Since(start)
	entries := store.CurrentSeq()
	if err := store.Close(); err != nil {
		return 0, 0, 0, err
	}
	return wrote, entries, funded, nil
}

// replayCodecLedger reopens the journal — GridBank's startup path —
// and asserts conservation on the recovered store.
func replayCodecLedger(path, codec string, funded currency.Amount) (time.Duration, error) {
	start := time.Now()
	j, err := db.OpenFileJournalCodec(path, false, codec)
	if err != nil {
		return 0, err
	}
	store, err := db.Open(j)
	if err != nil {
		return 0, err
	}
	replayed := time.Since(start)
	defer store.Close()
	mgr, err := accounts.NewManager(store, accounts.Config{})
	if err != nil {
		return 0, err
	}
	total, err := mgr.TotalBalance()
	if err != nil {
		return 0, err
	}
	if total != funded {
		return 0, fmt.Errorf("conservation violated after %s replay: balances sum to %v, deposited %v", codec, total, funded)
	}
	return replayed, nil
}

// runCodecJournal A/Bs cold-start replay of the same history under each
// WAL generation, interleaved per round.
func runCodecJournal(cfg CodecExpConfig, res *CodecResult) error {
	pt := CodecJournalPoint{}
	for r := 0; r < cfg.Rounds; r++ {
		for _, codec := range []string{wire.CodecJSON, wire.CodecBin1} {
			path := filepath.Join(cfg.Dir, fmt.Sprintf("ledger-%s-%d.wal", codec, r))
			wrote, entries, funded, err := buildCodecLedger(path, codec, cfg.JournalTransfers)
			if err != nil {
				return err
			}
			replayed, err := replayCodecLedger(path, codec, funded)
			if err != nil {
				return err
			}
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			pt.Entries = entries
			if codec == wire.CodecJSON {
				pt.JSONReplay += float64(replayed.Milliseconds())
				pt.JSONWriteMS += float64(wrote.Milliseconds())
				pt.JSONBytes = info.Size()
			} else {
				pt.BinReplay += float64(replayed.Milliseconds())
				pt.BinWriteMS += float64(wrote.Milliseconds())
				pt.BinBytes = info.Size()
			}
		}
	}
	rounds := float64(cfg.Rounds)
	pt.JSONReplay /= rounds
	pt.BinReplay /= rounds
	pt.JSONWriteMS /= rounds
	pt.BinWriteMS /= rounds
	pt.Speedup = pt.JSONReplay / pt.BinReplay
	pt.SizeRatio = float64(pt.JSONBytes) / float64(pt.BinBytes)
	res.Journal = append(res.Journal, pt)
	return nil
}

// runCodecCatchupCell measures one codec: a follower connects to a
// fresh primary (tiny bootstrap snapshot — cold bootstrap ships state
// in the JSON hello regardless of codec, so it can't distinguish
// them), then the whole transfer history streams through the
// negotiated codec; the clock runs from the first transfer until the
// follower has applied the head.
func runCodecCatchupCell(cfg CodecExpConfig, offers []string, name string) (time.Duration, uint64, error) {
	ca, trust, pubID, err := newVO("VO-CODEC")
	if err != nil {
		return 0, 0, err
	}
	store := db.MustOpenMemory()
	mgr, err := accounts.NewManager(store, accounts.Config{})
	if err != nil {
		return 0, 0, err
	}
	payer, err := mgr.CreateAccount("CN=codec-payer", "VO-CODEC", "")
	if err != nil {
		return 0, 0, err
	}
	payee, err := mgr.CreateAccount("CN=codec-payee", "VO-CODEC", "")
	if err != nil {
		return 0, 0, err
	}
	funded := currency.FromG(1_000_000)
	if err := mgr.Admin().Deposit(payer.AccountID, funded); err != nil {
		return 0, 0, err
	}

	pub, err := replica.NewPublisher(replica.PublisherConfig{
		Store:       store,
		Identity:    pubID,
		Trust:       trust,
		PrimaryAddr: "127.0.0.1:1",
		Heartbeat:   50 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go pub.Serve(pln)
	defer pub.Close()

	folID, err := ca.Issue(pki.IssueOptions{CommonName: "codec-replica-" + name, Organization: "VO-CODEC", IsServer: true})
	if err != nil {
		return 0, 0, err
	}
	fol, err := replica.StartFollower(replica.FollowerConfig{
		PublisherAddr: pln.Addr().String(),
		Identity:      folID,
		Trust:         trust,
		OfferCodecs:   offers,
		RetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer fol.Close()
	if err := fol.WaitReady(30 * time.Second); err != nil {
		return 0, 0, err
	}

	start := time.Now()
	for i := 0; i < 2*cfg.JournalTransfers; i++ {
		if _, err := mgr.Transfer(payer.AccountID, payee.AccountID, currency.FromMicro(1), accounts.TransferOptions{}); err != nil {
			return 0, 0, err
		}
	}
	head := store.CurrentSeq()
	if err := fol.WaitForSeq(head, 60*time.Second); err != nil {
		return 0, 0, err
	}
	caught := time.Since(start)

	fmgr, err := accounts.NewManager(fol.Store(), accounts.Config{})
	if err != nil {
		return 0, 0, err
	}
	total, err := fmgr.TotalBalance()
	if err != nil {
		return 0, 0, err
	}
	if total != funded {
		return 0, 0, fmt.Errorf("conservation violated after %s catch-up: balances sum to %v, deposited %v", name, total, funded)
	}
	return caught, head, nil
}

// runCodecCatchup A/Bs the negotiated stream codec, interleaved per
// round on identical fresh worlds.
func runCodecCatchup(cfg CodecExpConfig, res *CodecResult) error {
	pt := CodecCatchupPoint{}
	for r := 0; r < cfg.Rounds; r++ {
		j, entries, err := runCodecCatchupCell(cfg, nil, "json") // offerless hello = seed stream
		if err != nil {
			return err
		}
		b, _, err := runCodecCatchupCell(cfg, []string{wire.CodecBin1, wire.CodecJSON}, "bin1")
		if err != nil {
			return err
		}
		pt.Entries = entries
		pt.JSONMS += float64(j.Milliseconds())
		pt.BinMS += float64(b.Milliseconds())
	}
	pt.JSONMS /= float64(cfg.Rounds)
	pt.BinMS /= float64(cfg.Rounds)
	pt.Speedup = pt.JSONMS / pt.BinMS
	res.Catchup = append(res.Catchup, pt)
	return nil
}

// RunCodecExp runs the full codec A/B sweep.
func RunCodecExp(cfg CodecExpConfig) (*CodecResult, error) {
	if len(cfg.Concurrency) == 0 {
		cfg.Concurrency = []int{1, 16}
	}
	if cfg.OpsPerCaller <= 0 {
		cfg.OpsPerCaller = 120
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	if cfg.JournalTransfers <= 0 {
		cfg.JournalTransfers = 2000
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "gridbank-codec")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	res := &CodecResult{}
	if err := runCodecFrames(cfg, res); err != nil {
		return nil, fmt.Errorf("codec frames: %w", err)
	}
	if err := runCodecJournal(cfg, res); err != nil {
		return nil, fmt.Errorf("codec journal: %w", err)
	}
	if err := runCodecCatchup(cfg, res); err != nil {
		return nil, fmt.Errorf("codec catch-up: %w", err)
	}
	return res, nil
}

// WriteCodecExp renders the sweep.
func WriteCodecExp(w io.Writer, r *CodecResult) {
	fmt.Fprintf(w, "Negotiated bin1 codec vs. seed JSON, interleaved A/B in the same window\n")
	fmt.Fprintf(w, "(conservation asserted through the codec under test in every cell)\n\n")
	ft := &Table{Header: []string{"workload", "callers", "json ops/s", "bin1 ops/s", "speedup"}}
	for _, p := range r.Frames {
		ft.Add(p.Workload, p.Concurrency,
			fmt.Sprintf("%.0f", p.JSONOps), fmt.Sprintf("%.0f", p.BinOps),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	ft.Write(w)
	fmt.Fprintf(w, "\nWAL cold-start replay (same history, both generations):\n\n")
	jt := &Table{Header: []string{"entries", "json replay", "bin1 replay", "speedup", "json bytes", "bin1 bytes", "size ratio"}}
	for _, p := range r.Journal {
		jt.Add(p.Entries,
			fmt.Sprintf("%.0fms", p.JSONReplay), fmt.Sprintf("%.0fms", p.BinReplay),
			fmt.Sprintf("%.2fx", p.Speedup),
			p.JSONBytes, p.BinBytes, fmt.Sprintf("%.2fx", p.SizeRatio))
	}
	jt.Write(w)
	fmt.Fprintf(w, "\nReplica catch-up through the negotiated stream (first write to applied head):\n\n")
	ct := &Table{Header: []string{"entries", "json catch-up", "bin1 catch-up", "speedup"}}
	for _, p := range r.Catchup {
		ct.Add(p.Entries,
			fmt.Sprintf("%.0fms", p.JSONMS), fmt.Sprintf("%.0fms", p.BinMS),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	ct.Write(w)
}
