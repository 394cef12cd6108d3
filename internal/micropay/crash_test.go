package micropay_test

// Crash-at-every-boundary coverage for chain redemption, in the style
// of internal/usage's crash suite: every durable protocol step —
// spool-append, cross-shard pin, settle, row advance, spool cleanup —
// is interrupted by a simulated process death, every store reboots from
// its crash-survivable journal, and the recovered pipeline must
// converge to exactly-once payment with exact conservation.
//
// These tests are the regression net for the chain-redemption atomicity
// bug: the pre-fix bank moved the money and flipped the chain row in
// two separate ledger transactions, so a crash between them replayed
// the delta on retry (double pay) or stranded it (lost pay). With the
// row advance folded into the money movement, no crash point can
// produce either.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
)

// runCrash streams one claim to the given boundary, dies there, reboots
// and drains.
func runCrash(w *world, ch *payment.Chain, payeeCert string, index int, at micropay.Boundary) {
	w.t.Helper()
	died := false
	w.crash = func(b micropay.Boundary, serial string) error {
		if b == at && !died {
			died = true
			return fmt.Errorf("injected death at %s", b)
		}
		return nil
	}
	_, err := w.pipe.Submit(payeeCert, claimsFor(w.t, ch, index))
	if at == micropay.BoundarySpooled {
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
	w.crash = nil
	w.reboot()
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		w.t.Fatalf("drain after reboot: %v", err)
	}
}

func TestCrashAtEveryBoundarySameShard(t *testing.T) {
	// Same-shard redemptions settle atomically (the row advance rides
	// the ledger transaction), so only three boundaries exist.
	for _, b := range []micropay.Boundary{
		micropay.BoundarySpooled, micropay.BoundarySettled, micropay.BoundaryCleaned,
	} {
		t.Run(b.String(), func(t *testing.T) {
			w := newWorld(t, 2)
			ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
			runCrash(w, ch, w.sameCert, 7, b)
			if got := w.avail(w.sameAcct); got != currency.FromG(7) {
				t.Errorf("payee = %s, want 7 G$ (exactly-once violated)", got)
			}
			if st := w.pipe.Status(); st.Pending != 0 || st.Failed != 0 {
				t.Errorf("residue after recovery: %+v", st)
			}
			w.assertConserved()
		})
	}
}

func TestCrashAtEveryBoundaryCrossShard(t *testing.T) {
	for _, b := range []micropay.Boundary{
		micropay.BoundarySpooled, micropay.BoundaryPinned, micropay.BoundarySettled,
		micropay.BoundaryAdvanced, micropay.BoundaryCleaned,
	} {
		t.Run(b.String(), func(t *testing.T) {
			w := newWorld(t, 2)
			ch := w.issue(w.crossCert, 10, currency.FromG(1), time.Hour)
			runCrash(w, ch, w.crossCert, 7, b)
			if got := w.avail(w.crossAcct); got != currency.FromG(7) {
				t.Errorf("payee = %s, want 7 G$ (exactly-once violated)", got)
			}
			w.assertConserved()
		})
	}
}

// TestDoubleCrashCrossShard dies once mid-settlement and again during
// the recovery drain, at every ordered boundary pair; the claim must
// still pay exactly once.
func TestDoubleCrashCrossShard(t *testing.T) {
	boundaries := []micropay.Boundary{
		micropay.BoundaryPinned, micropay.BoundarySettled,
		micropay.BoundaryAdvanced, micropay.BoundaryCleaned,
	}
	for i, first := range boundaries {
		for _, second := range boundaries[i:] {
			t.Run(fmt.Sprintf("%s-then-%s", first, second), func(t *testing.T) {
				w := newWorld(t, 2)
				ch := w.issue(w.crossCert, 10, currency.FromG(1), time.Hour)
				runCrash(w, ch, w.crossCert, 7, first)
				// Second cycle: resubmit the settled claim plus a new
				// one, crash again at the second boundary, recover.
				died := false
				w.crash = func(b micropay.Boundary, _ string) error {
					if b == second && !died {
						died = true
						return fmt.Errorf("second injected death at %s", b)
					}
					return nil
				}
				if _, err := w.pipe.Submit(w.crossCert, claimsFor(t, ch, 7, 9)); err == nil {
					w.pipe.SettleOnce()
				}
				w.crash = nil
				w.reboot()
				if _, err := w.pipe.Drain(10 * time.Second); err != nil {
					t.Fatalf("drain after second reboot: %v", err)
				}
				if got := w.avail(w.crossAcct); got != currency.FromG(9) {
					t.Errorf("payee = %s, want 9 G$", got)
				}
				w.assertConserved()
			})
		}
	}
}

// TestFoldedRowAcrossPowerLoss: a Submit folds four claims into one row
// and the process dies after the row is durable, before the ack and
// before any settlement. The producer, which heard nothing, resends —
// first with other batch boundaries, then the whole batch. Recovery
// seeds the chain's intake session from the spooled row, so both resends
// are duplicates; the row pays the top index once and counts its four
// claims.
func TestFoldedRowAcrossPowerLoss(t *testing.T) {
	w := newWorld(t, 1)
	w.batch = 1 // one row per settlement batch
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	w.crash = func(b micropay.Boundary, _ string) error {
		if b == micropay.BoundarySpooled {
			return errors.New("injected death after the spool commit")
		}
		return nil
	}
	if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20, 30, 40)); err == nil {
		t.Fatal("expected injected death during Submit")
	}
	w.crash = nil
	w.reboot()
	if rows := w.spoolRows(); len(rows) != 1 || rows[ch.Commitment.Serial].Claims != 4 {
		t.Fatalf("recovered spool = %+v, want the one folded row", rows)
	}
	res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20))
	if err != nil || res.Accepted != 0 || res.AcceptedTicks != 0 || res.Duplicates != 2 {
		t.Fatalf("resend with other boundaries = %+v, %v", res, err)
	}
	res, err = w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20, 30, 40))
	if err != nil || res.Accepted != 0 || res.AcceptedTicks != 0 || res.Duplicates != 4 {
		t.Fatalf("resend of the spooled batch = %+v, %v", res, err)
	}
	st, err := w.pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledClaims != 4 || st.SettledTicks != 40 || st.Batches != 1 || st.Failed != 0 || st.Pending != 0 {
		t.Errorf("recovery drain = %+v, want 4 claims / 40 ticks in one redemption, nothing parked", st)
	}
	if st.Duplicates != 2+4 {
		t.Errorf("duplicates = %d, want the 2 + 4 reported at intake", st.Duplicates)
	}
	// Once settled, the same batch again is refused by the delta rule
	// alone: nothing is spooled, nothing is paid.
	res, err = w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20, 30, 40))
	if err != nil || res.Accepted != 0 || res.Duplicates != 4 || len(w.spoolRows()) != 0 {
		t.Fatalf("resend after settlement = %+v, %v, spool %v", res, err, w.spoolRows())
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.40") {
		t.Errorf("payee = %s, want 0.40 (exactly-once violated)", got)
	}
	w.assertConserved()
}

// TestResendAfterRestartCountsOnlyNewTicks: claims acknowledged before
// a restart and resent after it, before anything settled, are
// duplicates — AcceptedTicks counts only words the spool did not hold —
// and a higher claim in the resend merges into the pending row.
func TestResendAfterRestartCountsOnlyNewTicks(t *testing.T) {
	for _, tc := range []struct {
		name             string
		resend           []int
		accepted, ticks  int
		duplicates, paid int
	}{
		{name: "same claims", resend: []int{10, 40}, duplicates: 2, paid: 40},
		{name: "plus a higher claim", resend: []int{10, 40, 50}, accepted: 1, ticks: 10, duplicates: 2, paid: 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 1)
			ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
			for _, index := range []int{10, 40} {
				if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, index)); err != nil {
					t.Fatal(err)
				}
			}
			w.reboot()
			res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, tc.resend...))
			if err != nil || res.Accepted != tc.accepted || res.AcceptedTicks != tc.ticks || res.Duplicates != tc.duplicates {
				t.Fatalf("resend = %+v, %v; want accepted %d, ticks %d, duplicates %d",
					res, err, tc.accepted, tc.ticks, tc.duplicates)
			}
			st, err := w.pipe.Drain(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.SettledTicks != uint64(tc.paid) || st.SettledClaims != uint64(2+tc.accepted) {
				t.Errorf("drained = %+v, want %d ticks and %d claims", st, tc.paid, 2+tc.accepted)
			}
			if got, want := w.avail(w.sameAcct), currency.FromMicro(int64(tc.paid)*10_000); got != want {
				t.Errorf("payee = %s, want %s", got, want)
			}
			w.assertConserved()
		})
	}
}

// TestJournalDeathDuringRedeem kills the home shard's journal mid-
// redemption (the store refuses the write, like a dead disk). The
// redemption must fail whole: no money moved, no row advanced — the
// retry after revival pays exactly once. On the pre-fix two-transaction
// shape this test double-pays, because the transfer landed in its own
// transaction before the row write failed.
func TestJournalDeathDuringRedeem(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	w.journals[w.led.ShardFor(w.drawer)].Kill()
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 6, w.word(ch, 6), nil); err == nil {
		t.Fatal("redeem with dead journal succeeded")
	}
	w.reboot()
	out, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 6, w.word(ch, 6), nil)
	if err != nil {
		t.Fatalf("retry after reboot: %v", err)
	}
	if out.Paid != currency.FromG(6) {
		t.Fatalf("retry paid %s", out.Paid)
	}
	if got := w.avail(w.sameAcct); got != currency.FromG(6) {
		t.Fatalf("payee = %s, want exactly 6 G$", got)
	}
	w.assertConserved()
}

// TestJournalDeathDuringRelease is the same regression for ReleaseChain:
// pre-fix, the unlock and the row flip were two transactions, so a
// crash between them let a second release unlock the remainder twice.
func TestJournalDeathDuringRelease(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 4, w.word(ch, 4), nil); err != nil {
		t.Fatal(err)
	}
	w.journals[w.led.ShardFor(w.drawer)].Kill()
	if _, err := w.red.Release(ch.Commitment.Serial, nil); err == nil {
		t.Fatal("release with dead journal succeeded")
	}
	w.reboot()
	out, err := w.red.Release(ch.Commitment.Serial, nil)
	if err != nil {
		t.Fatalf("retry after reboot: %v", err)
	}
	if out.Paid != currency.FromG(6) {
		t.Fatalf("retry unlocked %s", out.Paid)
	}
	if got := w.locked(w.drawer); !got.IsZero() {
		t.Fatalf("drawer locked after release = %s", got)
	}
	// A third release attempt must find the flip durable.
	if _, err := w.red.Release(ch.Commitment.Serial, nil); !errors.Is(err, micropay.ErrChainState) {
		t.Fatalf("triple release = %v", err)
	}
	w.assertConserved()
}

// TestStaleClaimAcrossRestart replays an already-settled claim against
// a rebooted node: the chain row (not in-memory state) must refuse it.
func TestStaleClaimAcrossRestart(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w.reboot()
	// Synchronous replay: stale.
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 5, w.word(ch, 5), nil); !errors.Is(err, micropay.ErrStaleIndex) {
		t.Fatalf("replay after restart = %v", err)
	}
	// Streaming replay: duplicate, not an error, not a payment.
	res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 5))
	if err != nil || res.Duplicates != 1 || res.Accepted != 0 {
		t.Fatalf("stream replay = %+v, %v", res, err)
	}
	if got := w.avail(w.sameAcct); got != currency.FromG(5) {
		t.Fatalf("payee = %s", got)
	}
	w.assertConserved()
}

// TestSpoolJournalDeathDuringSubmit kills the spool journal mid-intake:
// Submit must fail (nothing acknowledged) and nothing phantom-settles.
func TestSpoolJournalDeathDuringSubmit(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	w.spoolJ.Kill()
	if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 3)); err == nil {
		t.Fatal("submit with dead spool journal succeeded")
	}
	w.reboot()
	if st, err := w.pipe.Drain(5 * time.Second); err != nil || st.SettledTicks != 0 {
		t.Fatalf("drain = %+v, %v", st, err)
	}
	if got := w.avail(w.sameAcct); !got.IsZero() {
		t.Fatalf("payee = %s after refused intake", got)
	}
}
