package usage_test

// Crash-at-every-boundary coverage for the usage spool, in the style of
// internal/shard/simtest: every durable protocol step (spool-append,
// pin, settle, marker-write, cleanup) is interrupted by a simulated
// process death, every store is rebooted from its crash-survivable
// journal, and the recovered pipeline must converge to exactly-once
// settlement with exact conservation — the same charge is never applied
// twice and never lost, no matter where the crash landed.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/settle"
	"gridbank/internal/shard"
	"gridbank/internal/shard/simtest"
	"gridbank/internal/usage"
)

// crashWorld is a sharded deployment plus spool, all on
// crash-survivable journals so a "reboot" rebuilds every store.
type crashWorld struct {
	t         *testing.T
	journals  []*simtest.Journal // one per shard
	spoolJ    *simtest.Journal
	led       *shard.Ledger
	spool     *db.Store
	pipe      *usage.Pipeline
	crash     func(usage.Boundary, string) error // injected via Config.CrashHook; dies with the process
	drawer    accounts.ID
	sameRecip accounts.ID // same shard as drawer
	crossRec  accounts.ID // different shard
	total     currency.Amount
}

func newCrashWorld(t *testing.T, shards int) *crashWorld {
	t.Helper()
	w := &crashWorld{t: t, spoolJ: simtest.NewJournal()}
	w.journals = make([]*simtest.Journal, shards)
	for i := range w.journals {
		w.journals[i] = simtest.NewJournal()
	}
	w.boot()

	drawer, err := w.led.CreateAccount("CN=crash-consumer", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.drawer = drawer.AccountID
	ds := w.led.ShardFor(w.drawer)
	for i := 0; w.sameRecip == "" || w.crossRec == ""; i++ {
		if i > 10000 {
			t.Fatal("could not place recipients on both shard sides")
		}
		a, err := w.led.CreateAccount(fmt.Sprintf("CN=crash-provider-%d", i), "VO-X", "")
		if err != nil {
			t.Fatal(err)
		}
		if w.led.ShardFor(a.AccountID) == ds {
			if w.sameRecip == "" {
				w.sameRecip = a.AccountID
			}
		} else if w.crossRec == "" {
			w.crossRec = a.AccountID
		}
	}
	if err := w.led.Deposit(w.drawer, currency.FromG(100)); err != nil {
		t.Fatal(err)
	}
	w.total, err = w.led.TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// boot (re)builds every store from its journal: shard recovery runs in
// shard.New, pipeline recovery (requeue + pin reseeding) in usage.New.
func (w *crashWorld) boot() {
	w.t.Helper()
	stores := make([]*db.Store, len(w.journals))
	for i, j := range w.journals {
		j.Revive()
		st, err := db.Open(j)
		if err != nil {
			w.t.Fatalf("reboot shard %d: %v", i, err)
		}
		stores[i] = st
	}
	led, err := shard.New(stores, shard.Config{Now: func() time.Time { return testEpoch }})
	if err != nil {
		w.t.Fatal(err)
	}
	w.led = led
	w.spoolJ.Revive()
	spool, err := db.Open(w.spoolJ)
	if err != nil {
		w.t.Fatalf("reboot spool: %v", err)
	}
	w.spool = spool
	pipe, err := usage.New(usage.Config{
		Ledger:  usage.WrapSharded(led),
		Spool:   spool,
		Workers: -1, // deterministic: settlement only via SettleOnce/Drain
		Now:     func() time.Time { return testEpoch },
		Log:     testLogger(w.t),
		CrashHook: func(b usage.Boundary, chargeID string) error {
			if w.crash != nil {
				return w.crash(b, chargeID)
			}
			return nil
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.pipe = pipe
}

// reboot models the whole node dying and restarting.
func (w *crashWorld) reboot() {
	w.t.Helper()
	w.pipe.Close()
	w.crash = nil
	w.boot()
}

func (w *crashWorld) submission(id string, recip accounts.ID) usage.Submission {
	return usage.Submission{
		ID:        id,
		Drawer:    w.drawer,
		Recipient: recip,
		RUR:       encodedRUR(w.t, "CN=crash-consumer", "CN=crash-provider", id, 3600), // 1 G$
		Rates:     flatRates("CN=crash-provider"),
	}
}

// assertConverged checks the post-recovery invariants: the charge
// settled exactly once (recipient credited exactly want), no pending or
// escrowed residue, and global conservation.
func (w *crashWorld) assertConverged(recip accounts.ID, want currency.Amount) {
	w.t.Helper()
	a, err := w.led.Details(recip)
	if err != nil {
		w.t.Fatal(err)
	}
	if a.AvailableBalance != want {
		w.t.Errorf("recipient = %s, want %s (exactly-once violated)", a.AvailableBalance, want)
	}
	st := w.pipe.Status()
	if st.Pending != 0 || st.Failed != 0 {
		w.t.Errorf("residue after recovery: %+v", st)
	}
	total, err := w.led.TotalBalance()
	if err != nil {
		w.t.Fatal(err)
	}
	if total != w.total {
		w.t.Errorf("conservation violated: %s -> %s", w.total, total)
	}
	esc, err := w.led.PendingEscrow()
	if err != nil || !esc.IsZero() {
		w.t.Errorf("escrow after recovery = %v, %v", esc, err)
	}
}

// runCrash drives one charge to the given boundary, dies there, reboots
// and drains — the core schedule every case shares.
func (w *crashWorld) runCrash(id string, recip accounts.ID, at usage.Boundary) {
	w.t.Helper()
	died := false
	w.crash = func(b usage.Boundary, chargeID string) error {
		if b == at && !died {
			died = true
			return fmt.Errorf("injected death at %s", b)
		}
		return nil
	}
	_, err := w.pipe.Submit([]usage.Submission{w.submission(id, recip)})
	if at == usage.BoundarySpooled {
		if err == nil {
			w.t.Fatal("expected injected death during Submit")
		}
	} else {
		if err != nil {
			w.t.Fatalf("submit: %v", err)
		}
		if _, err := w.pipe.SettleOnce(); !died {
			w.t.Fatalf("boundary %s never reached (settle err %v)", at, err)
		}
	}
	w.reboot()
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		w.t.Fatalf("drain after reboot: %v", err)
	}
}

func TestCrashAtEveryBoundarySameShard(t *testing.T) {
	// Same-shard charges settle atomically (markers ride the ledger
	// transaction), so only three boundaries exist on this path.
	for _, b := range []usage.Boundary{usage.BoundarySpooled, usage.BoundarySettled, usage.BoundaryCleaned} {
		t.Run(b.String(), func(t *testing.T) {
			w := newCrashWorld(t, 2)
			w.runCrash("same-"+b.String(), w.sameRecip, b)
			w.assertConverged(w.sameRecip, currency.FromG(1))
		})
	}
}

func TestCrashAtEveryBoundaryCrossShard(t *testing.T) {
	for _, b := range []usage.Boundary{
		usage.BoundarySpooled, usage.BoundaryPinned, usage.BoundarySettled,
		usage.BoundaryMarked, usage.BoundaryCleaned,
	} {
		t.Run(b.String(), func(t *testing.T) {
			w := newCrashWorld(t, 2)
			w.runCrash("cross-"+b.String(), w.crossRec, b)
			w.assertConverged(w.crossRec, currency.FromG(1))
		})
	}
}

// TestDoubleCrashCrossShard dies once mid-settlement and again during
// the recovery drain, at every ordered boundary pair.
func TestDoubleCrashCrossShard(t *testing.T) {
	boundaries := []usage.Boundary{
		usage.BoundaryPinned, usage.BoundarySettled, usage.BoundaryMarked, usage.BoundaryCleaned,
	}
	for i, first := range boundaries {
		for _, second := range boundaries[i:] {
			t.Run(fmt.Sprintf("%s-then-%s", first, second), func(t *testing.T) {
				w := newCrashWorld(t, 2)
				w.runCrash(fmt.Sprintf("dbl-%s-%s", first, second), w.crossRec, first)
				// The charge settled during the first recovery; a second
				// crash-and-recover cycle must change nothing.
				died := false
				w.crash = func(b usage.Boundary, _ string) error {
					if b == second && !died {
						died = true
						return fmt.Errorf("second injected death at %s", b)
					}
					return nil
				}
				if _, err := w.pipe.Submit([]usage.Submission{w.submission("dup-probe", w.crossRec)}); err == nil {
					// The duplicate probe settles zero new money; drain it.
					w.pipe.SettleOnce()
				}
				w.reboot()
				if _, err := w.pipe.Drain(10 * time.Second); err != nil {
					t.Fatalf("drain after second reboot: %v", err)
				}
				w.assertConverged(w.crossRec, currency.FromG(2)) // dbl charge + dup-probe charge
			})
		}
	}
}

// TestShardJournalDeathDuringSettle kills the drawer shard's journal at
// the settle step (the store refuses the write, like a dead disk); the
// charge must stay pending and settle exactly once after reboot.
func TestShardJournalDeathDuringSettle(t *testing.T) {
	w := newCrashWorld(t, 2)
	if _, err := w.pipe.Submit([]usage.Submission{w.submission("disk-death", w.sameRecip)}); err != nil {
		t.Fatal(err)
	}
	w.journals[w.led.ShardFor(w.drawer)].Kill()
	if n, err := w.pipe.SettleOnce(); err == nil || n != 0 {
		t.Fatalf("settle with dead journal = %d, %v; want failure", n, err)
	}
	w.reboot()
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain after reboot: %v", err)
	}
	w.assertConverged(w.sameRecip, currency.FromG(1))
}

// TestTransientFaultKeepsSiblingsQueued regresses the mixed-group
// requeue path: a group holding both a same-shard and a cross-shard
// charge hits a transient store fault on the same-shard batch; the
// untouched cross-shard sibling must return to the queue (not vanish
// until restart), so a later pass — after the fault clears, with no
// reboot — settles both.
func TestTransientFaultKeepsSiblingsQueued(t *testing.T) {
	w := newCrashWorld(t, 2)
	if _, err := w.pipe.Submit([]usage.Submission{
		w.submission("sib-same", w.sameRecip),
		w.submission("sib-cross", w.crossRec),
	}); err != nil {
		t.Fatal(err)
	}
	ds := w.led.ShardFor(w.drawer)
	w.journals[ds].Kill()
	if _, err := w.pipe.SettleOnce(); err == nil {
		t.Fatal("settle with dead journal succeeded")
	}
	w.journals[ds].Revive()
	if st, err := w.pipe.Drain(10 * time.Second); err != nil || st.Pending != 0 {
		t.Fatalf("drain after fault cleared = %+v, %v", st, err)
	}
	w.assertConverged(w.sameRecip, currency.FromG(1))
	w.assertConverged(w.crossRec, currency.FromG(1))
}

// TestSpoolJournalDeathDuringSubmit kills the spool journal mid-intake:
// Submit must fail (nothing acknowledged), and after reboot nothing
// phantom-settles.
func TestSpoolJournalDeathDuringSubmit(t *testing.T) {
	w := newCrashWorld(t, 2)
	w.spoolJ.Kill()
	if _, err := w.pipe.Submit([]usage.Submission{w.submission("lost-intake", w.sameRecip)}); err == nil {
		t.Fatal("submit with dead spool journal succeeded")
	}
	w.reboot()
	if st, err := w.pipe.Drain(5 * time.Second); err != nil || st.Settled != 0 {
		t.Fatalf("drain = %+v, %v", st, err)
	}
	w.assertConverged(w.sameRecip, 0)
}

// TestDeathAfterSpoolIsMarkedAbandoned: a crash hook's death during
// Submit surfaces like every other boundary's — marked as an abandon,
// with the intake counts — and leaves the charge durable but unqueued.
func TestDeathAfterSpoolIsMarkedAbandoned(t *testing.T) {
	w := newCrashWorld(t, 2)
	w.crash = func(b usage.Boundary, _ string) error {
		if b == usage.BoundarySpooled {
			return errors.New("injected death")
		}
		return nil
	}
	res, err := w.pipe.Submit([]usage.Submission{w.submission("spool-death", w.sameRecip)})
	if !errors.Is(err, settle.ErrAbandoned) || res == nil || res.Accepted != 1 {
		t.Fatalf("submit = %+v, %v; want the counts and an abandon", res, err)
	}
	if st := w.pipe.Status(); st.Pending != 0 {
		t.Fatalf("charge queued despite the death: %+v", st)
	}
	w.reboot()
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.assertConverged(w.sameRecip, currency.FromG(1))
}
