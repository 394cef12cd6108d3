package shard

import (
	"errors"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// TestKeyedCrossTransferReplay pins the cross-shard idempotency
// contract: replaying a key returns the recorded transfer, moves no
// further money and conserves the total; a fresh key moves money again.
func TestKeyedCrossTransferReplay(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(100))

	tr1, err := l.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{DedupKey: "x-1"})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := l.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{DedupKey: "x-1"})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if tr2.TransactionID != tr1.TransactionID {
		t.Fatalf("replay minted transaction %d, want recorded %d", tr2.TransactionID, tr1.TransactionID)
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if fa.AvailableBalance != currency.FromG(60) || ta.AvailableBalance != currency.FromG(40) {
		t.Fatalf("after replay: from=%v to=%v, want single 40 G$ move", fa.AvailableBalance, ta.AvailableBalance)
	}
	if total, err := l.TotalBalance(); err != nil || total != currency.FromG(100) {
		t.Fatalf("conservation after replay: %v, %v", total, err)
	}
	if esc, err := l.PendingEscrow(); err != nil || !esc.IsZero() {
		t.Fatalf("escrow leaked: %v, %v", esc, err)
	}

	tr3, err := l.Transfer(from, to, currency.FromG(10), accounts.TransferOptions{DedupKey: "x-2"})
	if err != nil {
		t.Fatal(err)
	}
	if tr3.TransactionID == tr1.TransactionID {
		t.Fatal("fresh key replayed the old transaction")
	}
}

// TestKeyedSameShardReplay covers the routing boundary: when both
// accounts land on one shard the manager's in-transaction dedup path
// serves the same contract.
func TestKeyedSameShardReplay(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, true, currency.FromG(100))
	tr1, err := l.Transfer(from, to, currency.FromG(25), accounts.TransferOptions{DedupKey: "s-1"})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := l.Transfer(from, to, currency.FromG(25), accounts.TransferOptions{DedupKey: "s-1"})
	if err != nil || tr2.TransactionID != tr1.TransactionID {
		t.Fatalf("same-shard replay: %+v, %v (want transaction %d)", tr2, err, tr1.TransactionID)
	}
	fa, _ := l.Details(from)
	if fa.AvailableBalance != currency.FromG(75) {
		t.Fatalf("drawer balance %v after replay, want single debit", fa.AvailableBalance)
	}
}

// TestKeyedCrossTransferCrashRetry crashes the coordinator at every
// durable boundary of a keyed transfer. Each is at or past the commit
// point, where the key is already spent: the retry under the same key
// must replay the recorded transaction — after its credit has landed —
// and never move money again, even across a full restart (fresh Ledger
// over the same stores).
func TestKeyedCrossTransferCrashRetry(t *testing.T) {
	for _, step := range []Step{StepPrepared, StepCreditApplied, StepFinalized} {
		t.Run(step.String(), func(t *testing.T) {
			stores := make([]*db.Store, 4)
			for i := range stores {
				stores[i] = db.MustOpenMemory()
			}
			now := func() time.Time { return testEpoch }
			l, err := New(stores, Config{Now: now})
			if err != nil {
				t.Fatal(err)
			}
			from, to := fundPair(t, l, false, currency.FromG(100))

			l.CrashHook = func(gid string, s Step) error {
				if s == step {
					return errors.New("injected coordinator crash")
				}
				return nil
			}
			_, err = l.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{DedupKey: "crash-1"})
			if !errors.Is(err, ErrInDoubt) {
				t.Fatalf("keyed transfer crashed at %s = %v, want ErrInDoubt", step, err)
			}
			mk, err := l.mgrs[l.ShardFor(from)].GetDedup("crash-1")
			if err != nil || mk == nil {
				t.Fatalf("key not spent at the commit point: %+v, %v", mk, err)
			}

			// Restart: a fresh ledger over the same stores, as a reboot
			// would build.
			l2, err := New(stores, Config{Now: now})
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Recover(); err != nil {
				t.Fatal(err)
			}
			tr2, err := l2.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{DedupKey: "crash-1"})
			if err != nil {
				t.Fatalf("retry after crash at %s: %v", step, err)
			}
			if tr2.TransactionID != mk.TxID {
				t.Fatalf("retry minted transaction %d, want recorded %d", tr2.TransactionID, mk.TxID)
			}
			fa, _ := l2.Details(from)
			ta, _ := l2.Details(to)
			if fa.AvailableBalance != currency.FromG(60) || ta.AvailableBalance != currency.FromG(40) {
				t.Fatalf("after crash at %s + retry: from=%v to=%v (double apply?)", step, fa.AvailableBalance, ta.AvailableBalance)
			}
			if total, err := l2.TotalBalance(); err != nil || total != currency.FromG(100) {
				t.Fatalf("conservation: %v, %v", total, err)
			}
			if esc, err := l2.PendingEscrow(); err != nil || !esc.IsZero() {
				t.Fatalf("escrow leaked: %v, %v", esc, err)
			}
			// The replay contract holds after the recovery too.
			tr3, err := l2.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{DedupKey: "crash-1"})
			if err != nil || tr3.TransactionID != tr2.TransactionID {
				t.Fatalf("post-recovery replay: %+v, %v", tr3, err)
			}
		})
	}
}

// TestKeyedTransferPinnedButNeverDriven covers what an older binary can
// leave behind: it pinned an allocated ID in the marker before driving
// the transfer and died before any money moved. The retry must drive
// the transfer under that pinned ID.
func TestKeyedTransferPinnedButNeverDriven(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(50))

	fs := l.ShardFor(from)
	pinned := l.txSeq.Add(1)
	mk := &accounts.DedupMarker{Key: "pin-1", TxID: pinned, Date: testEpoch}
	if err := l.stores[fs].Update(func(tx *db.Tx) error {
		return l.mgrs[fs].PutDedupTx(tx, mk)
	}); err != nil {
		t.Fatal(err)
	}

	tr, err := l.Transfer(from, to, currency.FromG(20), accounts.TransferOptions{DedupKey: "pin-1"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TransactionID != pinned {
		t.Fatalf("re-drive used transaction %d, want the pinned %d", tr.TransactionID, pinned)
	}
	ta, _ := l.Details(to)
	if ta.AvailableBalance != currency.FromG(20) {
		t.Fatalf("recipient balance %v, want 20 G$", ta.AvailableBalance)
	}
}

// TestLedgerSweepDedup pins the sharded sweep: it removes expired
// markers on every shard, and a swept key then executes fresh.
func TestLedgerSweepDedup(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(100))
	tr1, err := l.Transfer(from, to, currency.FromG(10), accounts.TransferOptions{DedupKey: "ttl-1"})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.SweepDedup(testEpoch.Add(-time.Hour)); err != nil || n != 0 {
		t.Fatalf("early sweep removed %d (%v), want 0", n, err)
	}
	if n, err := l.SweepDedup(testEpoch.Add(time.Hour)); err != nil || n != 1 {
		t.Fatalf("sweep removed %d (%v), want 1", n, err)
	}
	tr2, err := l.Transfer(from, to, currency.FromG(10), accounts.TransferOptions{DedupKey: "ttl-1"})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.TransactionID == tr1.TransactionID {
		t.Fatal("swept key still replayed the old transaction")
	}
	fa, _ := l.Details(from)
	if fa.AvailableBalance != currency.FromG(80) {
		t.Fatalf("drawer balance %v, want two 10 G$ debits", fa.AvailableBalance)
	}
}

// TestKeyedCrossTransferSameKeyRace races many executions of one key:
// the marker commits with the money, so exactly one moves it and every
// caller gets that one transaction back.
func TestKeyedCrossTransferSameKeyRace(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(100))
	const callers = 8
	ids := make(chan uint64, callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			tr, err := l.Transfer(from, to, currency.FromG(10), accounts.TransferOptions{DedupKey: "race-1"})
			if err != nil {
				errs <- err
				return
			}
			ids <- tr.TransactionID
		}()
	}
	var first uint64
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case id := <-ids:
			if first == 0 {
				first = id
			} else if id != first {
				t.Fatalf("same key returned transactions %d and %d", first, id)
			}
		}
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if fa.AvailableBalance != currency.FromG(90) || ta.AvailableBalance != currency.FromG(10) {
		t.Fatalf("after %d racing executions: from=%v to=%v, want one 10 G$ move", callers, fa.AvailableBalance, ta.AvailableBalance)
	}
	if esc, err := l.PendingEscrow(); err != nil || !esc.IsZero() {
		t.Fatalf("escrow leaked: %v, %v", esc, err)
	}
}
