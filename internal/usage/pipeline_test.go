package usage_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

var testEpoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// tlogWriter adapts testing.T to io.Writer so pipeline fault logs land
// in test output.
type tlogWriter struct{ t *testing.T }

func (w tlogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *obs.Logger {
	return obs.NewLogger(tlogWriter{t}, obs.LevelDebug)
}

// flatRates prices every chargeable item at zero except CPU, at
// 1 G$/3600 s — so a record with N CPU-seconds costs N/3600 G$.
func flatRates(provider string) *rur.RateCard {
	rates := map[rur.Item]currency.Rate{
		rur.ItemCPU: currency.PerHour(currency.Scale),
	}
	for _, item := range rur.AllItems {
		if _, ok := rates[item]; !ok {
			rates[item] = currency.ZeroRate
		}
	}
	return &rur.RateCard{Provider: provider, Currency: currency.GridDollar, Rates: rates}
}

// encodedRUR builds a valid record worth cpuSec CPU-seconds.
func encodedRUR(t *testing.T, consumer, provider, jobID string, cpuSec int64) []byte {
	t.Helper()
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: consumer},
		Job:      rur.JobDetails{JobID: jobID, Application: "test", Start: testEpoch, End: testEpoch.Add(time.Hour)},
		Resource: rur.ResourceDetails{Host: "h", CertificateName: provider, LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, cpuSec)
	raw, err := rur.Encode(rec, rur.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// singleWorld is a one-shard ledger with a volatile spool.
type singleWorld struct {
	led    *shard.Ledger
	spool  *db.Store
	drawer accounts.ID
	recip  accounts.ID
}

func newSingleWorld(t *testing.T, funds currency.Amount) *singleWorld {
	t.Helper()
	led := mustLedger(t)
	drawer, err := led.CreateAccount("CN=consumer", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	recip, err := led.CreateAccount("CN=provider", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	if funds.IsPositive() {
		if err := led.Deposit(drawer.AccountID, funds); err != nil {
			t.Fatal(err)
		}
	}
	return &singleWorld{led: led, spool: db.MustOpenMemory(), drawer: drawer.AccountID, recip: recip.AccountID}
}

func (w *singleWorld) pipeline(t *testing.T, cfg usage.Config) *usage.Pipeline {
	t.Helper()
	cfg.Ledger = w.led
	cfg.Spool = w.spool
	cfg.Now = func() time.Time { return testEpoch }
	cfg.Log = testLogger(t)
	p, err := usage.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func (w *singleWorld) submission(t *testing.T, id string, cpuSec int64) usage.Submission {
	return usage.Submission{
		ID:        id,
		Drawer:    w.drawer,
		Recipient: w.recip,
		RUR:       encodedRUR(t, "CN=consumer", "CN=provider", id, cpuSec),
		Rates:     flatRates("CN=provider"),
	}
}

func balance(t *testing.T, led *shard.Ledger, id accounts.ID) currency.Amount {
	t.Helper()
	a, err := led.Details(id)
	if err != nil {
		t.Fatal(err)
	}
	return a.AvailableBalance
}

func TestBatchSettlementAmortizesAndConserves(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(1000))
	p := w.pipeline(t, usage.Config{Workers: -1, BatchSize: 64})
	before, err := w.led.TotalBalance()
	if err != nil {
		t.Fatal(err)
	}

	const n = 100
	subs := make([]usage.Submission, 0, n)
	for i := 0; i < n; i++ {
		subs = append(subs, w.submission(t, fmt.Sprintf("job-%03d", i), 3600)) // 1 G$ each
	}
	res, err := p.Submit(subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != n || res.Duplicates != 0 || len(res.Rejected) != 0 {
		t.Fatalf("submit = %+v", res)
	}
	st, err := p.Drain(10 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v (stats %+v)", err, st)
	}
	if st.Settled != n || st.Pending != 0 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Batching: 100 charges from one drawer at batch size 64 must use
	// at most 2 ledger transactions, not 100.
	if st.Batches > 2 {
		t.Errorf("batches = %d, want <= 2", st.Batches)
	}
	if got, want := balance(t, w.led, w.recip), currency.FromG(n); got != want {
		t.Errorf("recipient = %s, want %s", got, want)
	}
	if got, want := balance(t, w.led, w.drawer), currency.FromG(1000-n); got != want {
		t.Errorf("drawer = %s, want %s", got, want)
	}
	after, err := w.led.TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("conservation violated: %s -> %s", before, after)
	}
	// Evidence: the TRANSFER records carry the RURs.
	stmt, err := w.led.Statement(w.recip, testEpoch.Add(-time.Hour), testEpoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Transfers) != n {
		t.Fatalf("transfers = %d, want %d", len(stmt.Transfers), n)
	}
	if len(stmt.Transfers[0].ResourceUsageRecord) == 0 {
		t.Error("transfer record lost the RUR evidence")
	}
	// The exactly-once marker names the transaction that paid the charge.
	raw, err := w.led.Store().Get("usage_settled", "job-000")
	if err != nil {
		t.Fatal(err)
	}
	var marker struct {
		TxID uint64 `json:"txid"`
	}
	if err := json.Unmarshal(raw, &marker); err != nil || marker.TxID == 0 {
		t.Errorf("settled marker %s: txid %d, %v", raw, marker.TxID, err)
	}
}

func TestExactlyOnceOnDuplicateSubmission(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(100))
	p := w.pipeline(t, usage.Config{Workers: -1})

	sub := w.submission(t, "job-dup", 3600)
	// Duplicate inside one batch and across batches, pre-settlement.
	res, err := p.Submit([]usage.Submission{sub, sub})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Duplicates != 1 {
		t.Fatalf("submit = %+v", res)
	}
	if res, err = p.Submit([]usage.Submission{sub}); err != nil || res.Duplicates != 1 {
		t.Fatalf("resubmit = %+v, %v", res, err)
	}
	if _, err := p.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Duplicate after settlement: the marker dedupes it.
	res, err = p.Submit([]usage.Submission{sub})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicates != 1 {
		t.Fatalf("post-settle resubmit = %+v", res)
	}
	if _, err := p.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := balance(t, w.led, w.recip), currency.FromG(1); got != want {
		t.Errorf("recipient = %s, want %s (settled more than once?)", got, want)
	}
}

func TestMalformedSubmissionsRejectedTyped(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(100))
	p := w.pipeline(t, usage.Config{Workers: -1})

	good := w.submission(t, "job-ok", 3600)
	badRUR := good
	badRUR.ID = "job-bad-rur"
	badRUR.RUR = []byte("{corrupt")
	noRates := good
	noRates.ID = "job-no-rates"
	noRates.Rates = nil
	selfPay := good
	selfPay.ID = "job-self"
	selfPay.Recipient = good.Drawer
	noID := good
	noID.ID = ""
	// Non-conforming: usage line with no corresponding rate (§2.1).
	unrated := good
	unrated.ID = "job-unrated"
	unrated.Rates = &rur.RateCard{Provider: "CN=provider", Currency: currency.GridDollar,
		Rates: map[rur.Item]currency.Rate{}}

	res, err := p.Submit([]usage.Submission{good, badRUR, noRates, selfPay, noID, unrated})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || len(res.Rejected) != 5 {
		t.Fatalf("submit = %+v", res)
	}
	for _, rej := range res.Rejected {
		if rej.Reason == "" {
			t.Errorf("rejection %q has no reason", rej.ID)
		}
	}
	if st, err := p.Drain(5 * time.Second); err != nil || st.Settled != 1 || st.Rejected != 5 {
		t.Fatalf("drain = %+v, %v", st, err)
	}
}

func TestBackpressureOverloaded(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(100))
	p := w.pipeline(t, usage.Config{Workers: -1, MaxPending: 3})

	var subs []usage.Submission
	for i := 0; i < 3; i++ {
		subs = append(subs, w.submission(t, fmt.Sprintf("bp-%d", i), 36))
	}
	if _, err := p.Submit(subs); err != nil {
		t.Fatal(err)
	}
	_, err := p.Submit([]usage.Submission{w.submission(t, "bp-overflow", 36)})
	if !errors.Is(err, usage.ErrOverloaded) {
		t.Fatalf("overflow err = %v, want ErrOverloaded", err)
	}
	// Settling frees capacity.
	if _, err := p.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit([]usage.Submission{w.submission(t, "bp-overflow", 36)}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestInsufficientFundsParksFailed(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(1)) // can afford one of the two
	p := w.pipeline(t, usage.Config{Workers: -1})

	if _, err := p.Submit([]usage.Submission{
		w.submission(t, "afford", 3600),
		w.submission(t, "broke", 3600),
	}); err != nil {
		t.Fatal(err)
	}
	st, err := p.Drain(5 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Settled != 1 || st.Failed != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := balance(t, w.led, w.drawer); !got.IsZero() {
		t.Errorf("drawer = %s, want 0", got)
	}
	// The parked row is not retried by draining alone.
	if st, err = p.Drain(time.Second); err != nil || st.Failed != 1 {
		t.Fatalf("re-drain = %+v, %v", st, err)
	}
	// But once the operator funds the drawer, re-submitting the same ID
	// resurrects the charge — the retry path — and it settles exactly
	// once.
	if err := w.led.Deposit(w.drawer, currency.FromG(5)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit([]usage.Submission{w.submission(t, "broke", 3600)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Duplicates != 0 {
		t.Fatalf("resurrect submit = %+v", res)
	}
	if st, err = p.Drain(5 * time.Second); err != nil || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("post-resurrect drain = %+v, %v", st, err)
	}
	if got, want := balance(t, w.led, w.recip), currency.FromG(2); got != want {
		t.Errorf("recipient = %s, want %s", got, want)
	}
}

func TestBackgroundWorkersSettle(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(100))
	p := w.pipeline(t, usage.Config{Workers: 2, RetryInterval: time.Millisecond})

	var subs []usage.Submission
	for i := 0; i < 40; i++ {
		subs = append(subs, w.submission(t, fmt.Sprintf("bg-%02d", i), 3600))
	}
	if _, err := p.Submit(subs); err != nil {
		t.Fatal(err)
	}
	st, err := p.Drain(10 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v (stats %+v)", err, st)
	}
	if got, want := balance(t, w.led, w.recip), currency.FromG(40); got != want {
		t.Errorf("recipient = %s, want %s", got, want)
	}
}

// shardedWorld is an N-shard ledger with a cross-shard account pair.
type shardedWorld struct {
	led    *shard.Ledger
	spool  *db.Store
	drawer accounts.ID // shard A
	recip  accounts.ID // shard B != A
	total  currency.Amount
}

func newShardedWorld(t *testing.T, shards int, funds currency.Amount) *shardedWorld {
	t.Helper()
	stores := make([]*db.Store, shards)
	for i := range stores {
		stores[i] = db.MustOpenMemory()
	}
	led, err := shard.New(stores, shard.Config{Now: func() time.Time { return testEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	w := &shardedWorld{led: led, spool: db.MustOpenMemory()}
	drawer, err := led.CreateAccount("CN=consumer", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.drawer = drawer.AccountID
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("no cross-shard partner found")
		}
		a, err := led.CreateAccount(fmt.Sprintf("CN=provider-%d", i), "VO-X", "")
		if err != nil {
			t.Fatal(err)
		}
		if led.ShardFor(a.AccountID) != led.ShardFor(w.drawer) {
			w.recip = a.AccountID
			break
		}
	}
	if err := led.Deposit(w.drawer, funds); err != nil {
		t.Fatal(err)
	}
	w.total, err = led.TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *shardedWorld) pipeline(t *testing.T, cfg usage.Config) *usage.Pipeline {
	t.Helper()
	cfg.Ledger = usage.WrapSharded(w.led)
	cfg.Spool = w.spool
	cfg.Now = func() time.Time { return testEpoch }
	cfg.Log = testLogger(t)
	p, err := usage.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func (w *shardedWorld) submission(t *testing.T, id string, cpuSec int64) usage.Submission {
	return usage.Submission{
		ID:        id,
		Drawer:    w.drawer,
		Recipient: w.recip,
		RUR:       encodedRUR(t, "CN=consumer", "CN=provider", id, cpuSec),
		Rates:     flatRates("CN=provider"),
	}
}

func TestCrossShardSettlementConserves(t *testing.T) {
	w := newShardedWorld(t, 3, currency.FromG(100))
	p := w.pipeline(t, usage.Config{Workers: -1})

	var subs []usage.Submission
	for i := 0; i < 20; i++ {
		subs = append(subs, w.submission(t, fmt.Sprintf("x-%02d", i), 3600))
	}
	if _, err := p.Submit(subs); err != nil {
		t.Fatal(err)
	}
	st, err := p.Drain(10 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v (stats %+v)", err, st)
	}
	if st.Settled != 20 || st.CrossShard != 20 {
		t.Fatalf("stats = %+v", st)
	}
	got, err := w.led.Details(w.recip)
	if err != nil {
		t.Fatal(err)
	}
	if want := currency.FromG(20); got.AvailableBalance != want {
		t.Errorf("recipient = %s, want %s", got.AvailableBalance, want)
	}
	total, err := w.led.TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	if total != w.total {
		t.Errorf("conservation violated: %s -> %s", w.total, total)
	}
	if esc, err := w.led.PendingEscrow(); err != nil || !esc.IsZero() {
		t.Errorf("escrow after drain = %v, %v", esc, err)
	}
}

// TestCrossShard2PCCrashRetriesExactlyOnce injects a coordinator death
// inside the 2PC protocol and checks the pipeline's pinned-ID retry
// re-drives the same transfer instead of duplicating it.
func TestCrossShard2PCCrashRetriesExactlyOnce(t *testing.T) {
	for _, step := range []shard.Step{shard.StepPrepared, shard.StepCreditApplied, shard.StepFinalized} {
		t.Run(step.String(), func(t *testing.T) {
			w := newShardedWorld(t, 2, currency.FromG(10))
			p := w.pipeline(t, usage.Config{Workers: -1})

			if _, err := p.Submit([]usage.Submission{w.submission(t, "crash-2pc", 3600)}); err != nil {
				t.Fatal(err)
			}
			died := false
			w.led.CrashHook = func(gid string, s shard.Step) error {
				if s == step && !died {
					died = true
					return errors.New("injected coordinator death")
				}
				return nil
			}
			if _, err := p.SettleOnce(); err == nil {
				t.Fatal("expected in-doubt error from first pass")
			}
			w.led.CrashHook = nil
			st, err := p.Drain(10 * time.Second)
			if err != nil {
				t.Fatalf("drain after crash: %v (stats %+v)", err, st)
			}
			if st.Settled != 1 {
				t.Fatalf("stats = %+v", st)
			}
			rec, err := w.led.Details(w.recip)
			if err != nil {
				t.Fatal(err)
			}
			if want := currency.FromG(1); rec.AvailableBalance != want {
				t.Errorf("recipient = %s, want %s", rec.AvailableBalance, want)
			}
			total, err := w.led.TotalBalance()
			if err != nil {
				t.Fatal(err)
			}
			if total != w.total {
				t.Errorf("conservation violated: %s -> %s", w.total, total)
			}
		})
	}
}

func TestZeroAmountChargeSettlesWithoutTransfer(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(1))
	p := w.pipeline(t, usage.Config{Workers: -1})
	sub := w.submission(t, "free", 0) // zero CPU => zero charge
	if _, err := p.Submit([]usage.Submission{sub}); err != nil {
		t.Fatal(err)
	}
	st, err := p.Drain(5 * time.Second)
	if err != nil || st.Settled != 1 {
		t.Fatalf("drain = %+v, %v", st, err)
	}
	if got := balance(t, w.led, w.recip); !got.IsZero() {
		t.Errorf("recipient = %s, want 0", got)
	}
	// Idempotent even with no money moved.
	if res, err := p.Submit([]usage.Submission{sub}); err != nil || res.Duplicates != 1 {
		t.Fatalf("resubmit = %+v, %v", res, err)
	}

	// Across shards too the marker alone settles it: no pin, no 2PC.
	xw := newShardedWorld(t, 2, currency.FromG(1))
	xp := xw.pipeline(t, usage.Config{Workers: -1})
	xsub := xw.submission(t, "free-x", 0)
	if _, err := xp.Submit([]usage.Submission{xsub}); err != nil {
		t.Fatal(err)
	}
	if st, err := xp.Drain(5 * time.Second); err != nil || st.Settled != 1 || st.CrossShard != 0 || st.Failed != 0 {
		t.Fatalf("cross-shard drain = %+v, %v", st, err)
	}
	if res, err := xp.Submit([]usage.Submission{xsub}); err != nil || res.Duplicates != 1 {
		t.Fatalf("cross-shard resubmit = %+v, %v", res, err)
	}
}

func TestSubmitRequiresPositiveConfig(t *testing.T) {
	if _, err := usage.New(usage.Config{}); err == nil {
		t.Error("nil ledger accepted")
	}
	if _, err := usage.New(usage.Config{Ledger: mustLedger(t)}); err == nil {
		t.Error("nil spool accepted")
	}
}

// mustLedger is a one-shard ledger on a volatile store.
func mustLedger(t *testing.T) *shard.Ledger {
	t.Helper()
	led, err := shard.New([]*db.Store{db.MustOpenMemory()}, shard.Config{Now: func() time.Time { return testEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// TestRecoveryRequeuesPending rebuilds a pipeline over the same stores
// and checks spooled-but-unsettled charges settle after the "reboot".
func TestRecoveryRequeuesPending(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(10))
	p := w.pipeline(t, usage.Config{Workers: -1})
	if _, err := p.Submit([]usage.Submission{w.submission(t, "reboot-1", 3600)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := w.pipeline(t, usage.Config{Workers: -1})
	st, err := p2.Drain(5 * time.Second)
	if err != nil || st.Settled != 1 {
		t.Fatalf("drain after reboot = %+v, %v", st, err)
	}
	if got, want := balance(t, w.led, w.recip), currency.FromG(1); got != want {
		t.Errorf("recipient = %s, want %s", got, want)
	}
}

func TestRejectionReasonsAreDescriptive(t *testing.T) {
	w := newSingleWorld(t, currency.FromG(1))
	p := w.pipeline(t, usage.Config{Workers: -1})
	bad := w.submission(t, "bad", 36)
	bad.RUR = []byte("<not-xml")
	res, err := p.Submit([]usage.Submission{bad})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 1 || !strings.Contains(res.Rejected[0].Reason, "malformed RUR") {
		t.Fatalf("rejected = %+v", res.Rejected)
	}
}
