package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/node"
	"gridbank/internal/pki"
)

// The wire experiment measures the multiplexed transport: N concurrent
// callers sharing ONE TLS connection, swept over concurrency × payload
// size × durable/volatile work, in two modes run interleaved A/B in the
// same time window over the same world and connection:
//
//   - serialized: a mutex around each call — the seed transport's
//     lock-across-the-round-trip behavior, where a connection is a
//     half-duplex pipe;
//   - pipelined: calls issued concurrently, demuxed by request ID.
//
// The durable cells are the headline: pipelined callers reach the
// group-commit WAL together, so fsyncs amortize across the connection's
// in-flight requests. Every transfer cell asserts conservation through
// the client's own eyes (summed balances equal deposits).

// WireExpConfig parameterizes RunWireExp.
type WireExpConfig struct {
	// Concurrency sweeps callers sharing the one connection (default
	// 1, 4, 16, 32).
	Concurrency []int
	// Payloads sweeps echo-op body sizes in bytes (default 64, 4096).
	Payloads []int
	// OpsPerCaller is the per-caller op count in each round (default
	// 60 durable, 200 echo/volatile).
	OpsPerCaller int
	// Rounds is how many interleaved rounds of each mode to average
	// (default 2).
	Rounds int
	// Dir holds journal files; defaults to a fresh temp directory.
	Dir string
}

// WirePoint is one measured cell: a workload × concurrency pair with
// both modes' mean throughput and the resulting speedup.
type WirePoint struct {
	Workload      string  `json:"workload"`
	Concurrency   int     `json:"concurrency"`
	Ops           int     `json:"ops_per_mode_round"`
	SerializedOps float64 `json:"serialized_ops_per_sec"`
	PipelinedOps  float64 `json:"pipelined_ops_per_sec"`
	Speedup       float64 `json:"speedup"`
}

// WireResult is the full sweep.
type WireResult struct {
	Points []WirePoint `json:"points"`
}

// wireWorld is a live TLS bank with a funded disjoint account
// population and one shared admin client.
type wireWorld struct {
	n       *node.Node
	client  *core.Client
	addr    string
	trust   *pki.TrustStore
	adminID *pki.Identity
	payers  []accounts.ID
	payees  []accounts.ID
	funded  currency.Amount
}

// newWireWorld boots a node from base — storage and telemetry are the
// caller's; identity, limits and population are filled in here.
func newWireWorld(base node.Config, pairs int) (_ *wireWorld, err error) {
	ca, trust, bankID, err := newVO("VO-W")
	if err != nil {
		return nil, err
	}
	adminID, err := ca.Issue(pki.IssueOptions{CommonName: "wire-admin", Organization: "VO-W"})
	if err != nil {
		return nil, err
	}
	base.Identity, base.Trust, base.Admins = bankID, trust, []string{adminID.SubjectName()}
	// Let the sweep's widest cell keep every caller in flight at once.
	base.MaxInFlight = pairs
	n, err := node.Open(base)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	if err := n.Server().RegisterOp("bench.echo", func(subject string, body []byte) (any, error) {
		return json.RawMessage(body), nil
	}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go n.Serve(ln)

	w := &wireWorld{n: n, addr: ln.Addr().String(), trust: trust, adminID: adminID}
	led := n.Ledger()
	perAcct := currency.FromG(1_000_000)
	for i := 0; i < pairs; i++ {
		payer, err := led.CreateAccount(fmt.Sprintf("CN=wire-payer-%d", i), "VO-W", "")
		if err != nil {
			return nil, err
		}
		if err := led.Deposit(payer.AccountID, perAcct); err != nil {
			return nil, err
		}
		w.funded = w.funded.MustAdd(perAcct)
		payee, err := led.CreateAccount(fmt.Sprintf("CN=wire-payee-%d", i), "VO-W", "")
		if err != nil {
			return nil, err
		}
		w.payers = append(w.payers, payer.AccountID)
		w.payees = append(w.payees, payee.AccountID)
	}
	// One admin-authenticated client: admins may drive any payer, so N
	// workers can share this single pipelined connection.
	if w.client, err = core.Dial(w.addr, adminID, trust); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *wireWorld) close() {
	w.client.Close()
	w.n.Close()
}

// runRound drives `concurrency` workers for ops calls each through the
// shared client. In serialized mode a mutex wraps every call,
// reproducing the seed transport's end-to-end serialization on one
// connection.
func (w *wireWorld) runRound(workload string, payload []byte, concurrency, ops int, serialized bool) (float64, error) {
	var serial sync.Mutex
	call := func(worker int) error {
		if serialized {
			serial.Lock()
			defer serial.Unlock()
		}
		switch {
		case payload != nil:
			var echo json.RawMessage
			return w.client.Call("bench.echo", json.RawMessage(payload), &echo)
		case strings.HasPrefix(workload, "checkfunds"):
			// §3.4 payment guarantee: a durable fund-locking mutation
			// with no receipt signature — the purest view of fsync
			// amortization over the multiplexed connection.
			return w.client.CheckFunds(w.payers[worker], currency.FromMicro(1))
		default:
			_, err := w.client.DirectTransfer(w.payers[worker], w.payees[worker], currency.FromMicro(1), "")
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

// assertConservation sums every account's balance through the client —
// the wire's own view — and compares against the deposits.
func (w *wireWorld) assertConservation() error {
	var total currency.Amount
	for _, ids := range [][]accounts.ID{w.payers, w.payees} {
		for _, id := range ids {
			a, err := w.client.AccountDetails(id)
			if err != nil {
				return err
			}
			total = total.MustAdd(a.AvailableBalance).MustAdd(a.LockedBalance)
		}
	}
	if total != w.funded {
		return fmt.Errorf("conservation violated over the wire: balances sum to %v, deposited %v", total, w.funded)
	}
	return nil
}

// runWireCell measures one workload × concurrency cell with interleaved
// A/B rounds.
func runWireCell(w *wireWorld, workload string, payload []byte, concurrency, ops, rounds int) (*WirePoint, error) {
	var ser, pip float64
	for r := 0; r < rounds; r++ {
		s, err := w.runRound(workload, payload, concurrency, ops, true)
		if err != nil {
			return nil, err
		}
		p, err := w.runRound(workload, payload, concurrency, ops, false)
		if err != nil {
			return nil, err
		}
		ser += s
		pip += p
	}
	ser /= float64(rounds)
	pip /= float64(rounds)
	return &WirePoint{
		Workload:      workload,
		Concurrency:   concurrency,
		Ops:           concurrency * ops,
		SerializedOps: ser,
		PipelinedOps:  pip,
		Speedup:       pip / ser,
	}, nil
}

// RunWireExp sweeps the multiplexed transport.
func RunWireExp(cfg WireExpConfig) (*WireResult, error) {
	if len(cfg.Concurrency) == 0 {
		cfg.Concurrency = []int{1, 4, 16, 32}
	}
	if len(cfg.Payloads) == 0 {
		cfg.Payloads = []int{64, 4096}
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "gridbank-wire")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	maxConc := 0
	for _, c := range cfg.Concurrency {
		if c > maxConc {
			maxConc = c
		}
	}
	res := &WireResult{}

	// Durable transfers: the fsync path, where pipelined callers share
	// group commits.
	durOps := cfg.OpsPerCaller
	if durOps <= 0 {
		durOps = 60
	}
	dw, err := newWireWorld(node.Config{Dir: cfg.Dir, Sync: true}, maxConc)
	if err != nil {
		return nil, err
	}
	for _, workload := range []string{"checkfunds/file-sync", "transfer/file-sync"} {
		for _, c := range cfg.Concurrency {
			pt, err := runWireCell(dw, workload, nil, c, durOps, cfg.Rounds)
			if err != nil {
				dw.close()
				return nil, err
			}
			res.Points = append(res.Points, *pt)
		}
	}
	err = dw.assertConservation()
	dw.close()
	if err != nil {
		return nil, err
	}

	// Volatile transfers and echo payload sweep: CPU/syscall-bound, no
	// fsync to amortize.
	volOps := cfg.OpsPerCaller
	if volOps <= 0 {
		volOps = 200
	}
	vw, err := newWireWorld(node.Config{}, maxConc)
	if err != nil {
		return nil, err
	}
	defer vw.close()
	for _, c := range cfg.Concurrency {
		pt, err := runWireCell(vw, "transfer/volatile", nil, c, volOps, cfg.Rounds)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *pt)
	}
	for _, size := range cfg.Payloads {
		payload, err := json.Marshal(map[string]string{"pad": string(bytesOf(size))})
		if err != nil {
			return nil, err
		}
		for _, c := range cfg.Concurrency {
			pt, err := runWireCell(vw, fmt.Sprintf("echo/%dB", size), payload, c, volOps, cfg.Rounds)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, *pt)
		}
	}
	if err := vw.assertConservation(); err != nil {
		return nil, err
	}
	return res, nil
}

// bytesOf builds a printable padding string of n bytes.
func bytesOf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

// WriteWireExp renders the sweep.
func WriteWireExp(w io.Writer, r *WireResult) {
	fmt.Fprintf(w, "Multiplexed wire transport: N callers sharing ONE TLS connection\n")
	fmt.Fprintf(w, "(serialized = seed's lock-across-round-trip; pipelined = concurrent dispatch,\n")
	fmt.Fprintf(w, " ID-demuxed responses; interleaved A/B rounds; conservation asserted per world)\n\n")
	t := &Table{Header: []string{"workload", "callers", "serialized ops/s", "pipelined ops/s", "speedup"}}
	for _, p := range r.Points {
		t.Add(p.Workload, p.Concurrency,
			fmt.Sprintf("%.0f", p.SerializedOps), fmt.Sprintf("%.0f", p.PipelinedOps),
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	t.Write(w)
}
