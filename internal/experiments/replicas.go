package experiments

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/node"
	"gridbank/internal/pki"
	"gridbank/internal/replica"
)

// The replicas experiment measures the WAL-shipping read-replica
// subsystem: R read replicas mirror one primary while M reader clients
// pull balances through the read-routing client and a writer keeps the
// ledger churning. It reports read throughput per cell plus replication
// lag percentiles (in journal entries), and asserts the replication
// contract on every cell: replicas converge to the primary's exact
// sequence once writes stop, and their staleness stays within the
// routing bound.

// ReplicasConfig parameterizes RunReplicas.
type ReplicasConfig struct {
	// ReplicaCounts sweeps the number of read replicas (default 0, 1,
	// 2, 4; 0 = all reads on the primary).
	ReplicaCounts []int
	// ReaderCounts sweeps concurrent reader clients (default 1, 4).
	ReaderCounts []int
	// Window is the measurement time per cell (default 250ms).
	Window time.Duration
	// MaxStaleness is the routing bound readers use (default 2s).
	MaxStaleness time.Duration
	// WritePause throttles the background writer between ledger
	// transfers (default 200µs). An unthrottled in-process writer
	// saturates small hosts and measures CPU contention, not
	// replication.
	WritePause time.Duration
}

// ReplicasPoint is one measured cell.
type ReplicasPoint struct {
	Replicas    int           `json:"replicas"`
	Readers     int           `json:"readers"`
	Reads       int           `json:"reads"`
	ReadsPerSec float64       `json:"reads_per_sec"`
	Writes      int           `json:"writes"`
	LagP50      int           `json:"lag_p50_entries"`
	LagP95      int           `json:"lag_p95_entries"`
	LagMax      int           `json:"lag_max_entries"`
	FinalStale  time.Duration `json:"final_staleness"`
}

// ReplicasResult is the full sweep.
type ReplicasResult struct {
	Points []ReplicasPoint
}

// replicaWorld is one cell's full wire-level topology: a volatile
// primary node, its publisher, and nReplicas read replicas.
type replicaWorld struct {
	trust    *pki.TrustStore
	n        *node.Node
	primary  string
	fols     []*replica.Follower
	repAddrs []string
	closers  []func() error

	reader *pki.Identity
	acct   accounts.ID
	payer  accounts.ID
	payee  accounts.ID
}

func (w *replicaWorld) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

func newReplicaWorld(nReplicas int) (_ *replicaWorld, err error) {
	w := &replicaWorld{}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	ca, trust, bankID, err := newVO("VO-REP")
	if err != nil {
		return nil, err
	}
	w.trust = trust
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.primary = ln.Addr().String()
	cfg := node.Config{Identity: bankID, Trust: trust, PrimaryAddr: w.primary, Heartbeat: 50 * time.Millisecond}
	if w.n, err = node.Open(cfg); err != nil {
		ln.Close()
		return nil, err
	}
	w.closers = append(w.closers, w.n.Close)
	go w.n.Serve(ln)
	led := w.n.Ledger()

	// One reader identity/account (what the clients poll) and a writer
	// pair the load generator churns.
	w.reader, err = ca.Issue(pki.IssueOptions{CommonName: "reader", Organization: "VO-REP"})
	if err != nil {
		return nil, err
	}
	acct, err := led.CreateAccount(w.reader.SubjectName(), "VO-REP", "")
	if err != nil {
		return nil, err
	}
	w.acct = acct.AccountID
	if err := led.Deposit(w.acct, currency.FromG(100)); err != nil {
		return nil, err
	}
	payer, err := led.CreateAccount("CN=writer-payer", "VO-REP", "")
	if err != nil {
		return nil, err
	}
	payee, err := led.CreateAccount("CN=writer-payee", "VO-REP", "")
	if err != nil {
		return nil, err
	}
	if err := led.Deposit(payer.AccountID, currency.FromG(10_000_000)); err != nil {
		return nil, err
	}
	w.payer, w.payee = payer.AccountID, payee.AccountID

	if nReplicas == 0 {
		return w, nil
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := w.n.Publish(0, pln); err != nil {
		pln.Close()
		return nil, err
	}
	cfg.ReplicaOf, cfg.PrimaryAddr = pln.Addr().String(), ""
	for i := 0; i < nReplicas; i++ {
		cfg.Identity, err = ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("replica-%d", i), Organization: "VO-REP", IsServer: true})
		if err != nil {
			return nil, err
		}
		rep, err := node.OpenReplica(cfg)
		if err != nil {
			return nil, err
		}
		w.closers = append(w.closers, rep.Close)
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go rep.Serve(rln)
		w.fols = append(w.fols, rep.Follower())
		w.repAddrs = append(w.repAddrs, rln.Addr().String())
	}
	return w, nil
}

// RunReplicas sweeps readers × replicas, measuring routed read
// throughput and replication lag.
func RunReplicas(cfg ReplicasConfig) (*ReplicasResult, error) {
	if len(cfg.ReplicaCounts) == 0 {
		cfg.ReplicaCounts = []int{0, 1, 2, 4}
	}
	if len(cfg.ReaderCounts) == 0 {
		cfg.ReaderCounts = []int{1, 4}
	}
	if cfg.Window <= 0 {
		cfg.Window = 250 * time.Millisecond
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = 2 * time.Second
	}
	if cfg.WritePause <= 0 {
		cfg.WritePause = 200 * time.Microsecond
	}
	res := &ReplicasResult{}
	for _, nRep := range cfg.ReplicaCounts {
		for _, nRead := range cfg.ReaderCounts {
			pt, err := runReplicasCell(cfg, nRep, nRead)
			if err != nil {
				return nil, fmt.Errorf("replicas %d/%d readers: %w", nRep, nRead, err)
			}
			res.Points = append(res.Points, *pt)
		}
	}
	return res, nil
}

func runReplicasCell(cfg ReplicasConfig, nReplicas, nReaders int) (*ReplicasPoint, error) {
	w, err := newReplicaWorld(nReplicas)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Routed clients, one per reader.
	clients := make([]*core.RoutedClient, nReaders)
	for i := range clients {
		primary, err := core.Dial(w.primary, w.reader, w.trust)
		if err != nil {
			return nil, err
		}
		var reps []*core.Client
		for _, addr := range w.repAddrs {
			c, err := core.Dial(addr, w.reader, w.trust)
			if err != nil {
				return nil, err
			}
			reps = append(reps, c)
		}
		rc, err := core.NewRoutedClient(primary, reps, core.RouteOptions{MaxStaleness: cfg.MaxStaleness})
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		clients[i] = rc
	}

	stop := make(chan struct{})
	var writes atomic.Int64
	var writeErr error
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		mgr := w.n.Ledger().MetaManager()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := mgr.Transfer(w.payer, w.payee, currency.FromMicro(1), accounts.TransferOptions{}); err != nil {
				writeErr = err
				return
			}
			writes.Add(1)
			time.Sleep(cfg.WritePause)
		}
	}()

	// Lag sampler: primary head vs. each follower's applied seq.
	var lagMu sync.Mutex
	var lags []int
	var swg sync.WaitGroup
	if len(w.fols) > 0 {
		swg.Add(1)
		go func() {
			defer swg.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					head := w.n.Ledger().Store().CurrentSeq()
					for _, fol := range w.fols {
						lag := int(int64(head) - int64(fol.AppliedSeq()))
						if lag < 0 {
							lag = 0
						}
						lagMu.Lock()
						lags = append(lags, lag)
						lagMu.Unlock()
					}
				}
			}
		}()
	}

	// Readers hammer the routed query path for the window.
	var reads atomic.Int64
	readErrs := make([]error, nReaders)
	var rwg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Window)
	for i, rc := range clients {
		rwg.Add(1)
		go func(i int, rc *core.RoutedClient) {
			defer rwg.Done()
			for time.Now().Before(deadline) {
				if _, err := rc.AccountDetails(w.acct); err != nil {
					readErrs[i] = err
					return
				}
				reads.Add(1)
			}
		}(i, rc)
	}
	rwg.Wait()
	elapsed := time.Since(start)
	close(stop)
	wwg.Wait()
	swg.Wait()
	if writeErr != nil {
		return nil, writeErr
	}
	for _, err := range readErrs {
		if err != nil {
			return nil, err
		}
	}

	// Staleness assertions: with writes quiesced, every replica must
	// converge to the primary's exact sequence, and report staleness
	// within the routing bound.
	var finalStale time.Duration
	head := w.n.Ledger().Store().CurrentSeq()
	for _, fol := range w.fols {
		if err := fol.WaitForSeq(head, 10*time.Second); err != nil {
			return nil, fmt.Errorf("replica did not converge: %w", err)
		}
		applied, _, stale, err := fol.Progress()
		if err != nil {
			return nil, err
		}
		if applied != head {
			return nil, fmt.Errorf("replica applied %d, primary head %d", applied, head)
		}
		if stale > cfg.MaxStaleness {
			return nil, fmt.Errorf("converged replica reports staleness %v beyond bound %v", stale, cfg.MaxStaleness)
		}
		if stale > finalStale {
			finalStale = stale
		}
	}
	// And a routed read must see the quiesced primary state exactly.
	details, err := clients[0].AccountDetails(w.acct)
	if err != nil {
		return nil, err
	}
	if details.AvailableBalance != currency.FromG(100) {
		return nil, fmt.Errorf("routed read of quiesced account = %v, want 100 G$", details.AvailableBalance)
	}

	p50, p95, max := lagPercentiles(lags)
	return &ReplicasPoint{
		Replicas:    nReplicas,
		Readers:     nReaders,
		Reads:       int(reads.Load()),
		ReadsPerSec: float64(reads.Load()) / elapsed.Seconds(),
		Writes:      int(writes.Load()),
		LagP50:      p50,
		LagP95:      p95,
		LagMax:      max,
		FinalStale:  finalStale,
	}, nil
}

func lagPercentiles(lags []int) (p50, p95, max int) {
	if len(lags) == 0 {
		return 0, 0, 0
	}
	sort.Ints(lags)
	p50 = lags[len(lags)/2]
	p95 = lags[len(lags)*95/100]
	max = lags[len(lags)-1]
	return
}

// WriteReplicas renders the sweep.
func WriteReplicas(w io.Writer, r *ReplicasResult) {
	fmt.Fprintf(w, "WAL-shipping read replicas: routed reads vs. replica count\n")
	fmt.Fprintf(w, "(lag in journal entries, sampled during sustained writes)\n\n")
	t := &Table{Header: []string{"replicas", "readers", "reads", "reads/sec", "writes", "lag p50", "lag p95", "lag max"}}
	for _, p := range r.Points {
		t.Add(p.Replicas, p.Readers, p.Reads, fmt.Sprintf("%.0f", p.ReadsPerSec), p.Writes, p.LagP50, p.LagP95, p.LagMax)
	}
	t.Write(w)
}
