package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/obs"
)

var testEpoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func newTestLedger(t *testing.T, n int) *Ledger {
	t.Helper()
	stores := make([]*db.Store, n)
	for i := range stores {
		stores[i] = db.MustOpenMemory()
	}
	l, err := New(stores, Config{Now: func() time.Time { return testEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a := MustNewRing(4, 0)
	b := MustNewRing(4, 0)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("01-0001-%08d", i)
		sa, sb := a.ShardFor(key), b.ShardFor(key)
		if sa != sb {
			t.Fatalf("rings disagree on %s: %d vs %d", key, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("shard out of range: %d", sa)
		}
		seen[sa] = true
	}
	if len(seen) != 4 {
		t.Fatalf("1000 keys used only %d of 4 shards", len(seen))
	}
}

func TestRingGrowthMovesBoundedFraction(t *testing.T) {
	small := MustNewRing(4, 0)
	big := MustNewRing(5, 0)
	moved := 0
	const keys = 5000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("01-0001-%08d", i)
		if small.ShardFor(key) != big.ShardFor(key) {
			moved++
		}
	}
	// Ideal is 1/5 of keys; allow generous slack for hash variance but
	// fail on anything near a full reshuffle.
	if frac := float64(moved) / keys; frac > 0.40 {
		t.Fatalf("adding a 5th shard moved %.0f%% of keys; consistent hashing should move ~20%%", frac*100)
	}
}

// fundPair creates two accounts guaranteed to live on different shards
// (or the same shard, per want) and funds the first.
func fundPair(t *testing.T, l *Ledger, wantSame bool, funds currency.Amount) (from, to accounts.ID) {
	t.Helper()
	var ids []accounts.ID
	for i := 0; len(ids) < 2 && i < 10000; i++ {
		a, err := l.CreateAccount(fmt.Sprintf("CN=pair-%d-%d", len(ids), i), "", "")
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			ids = append(ids, a.AccountID)
			continue
		}
		same := l.ShardFor(ids[0]) == l.ShardFor(a.AccountID)
		if same == wantSame {
			ids = append(ids, a.AccountID)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("could not find account pair with same=%v", wantSame)
	}
	if err := l.Deposit(ids[0], funds); err != nil {
		t.Fatal(err)
	}
	return ids[0], ids[1]
}

func TestCrossShardTransferMovesFundsAndWritesRecords(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(100))

	tr, err := l.Transfer(from, to, currency.FromG(30), accounts.TransferOptions{RUR: []byte("evidence")})
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if fa.AvailableBalance != currency.FromG(70) || ta.AvailableBalance != currency.FromG(30) {
		t.Fatalf("balances after cross transfer: %v / %v", fa.AvailableBalance, ta.AvailableBalance)
	}
	// Both sides see the transfer in their statements.
	for _, id := range []accounts.ID{from, to} {
		st, err := l.Statement(id, testEpoch.Add(-time.Hour), testEpoch.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, rec := range st.Transfers {
			if rec.TransactionID == tr.TransactionID {
				found = true
				if string(rec.ResourceUsageRecord) != "evidence" {
					t.Fatalf("RUR lost on %s copy", id)
				}
			}
		}
		if !found {
			t.Fatalf("statement of %s missing transfer %d", id, tr.TransactionID)
		}
	}
	if got, err := l.GetTransfer(tr.TransactionID); err != nil || got.Amount != currency.FromG(30) {
		t.Fatalf("GetTransfer = %v, %v", got, err)
	}
	// No 2PC residue.
	esc, err := l.PendingEscrow()
	if err != nil || !esc.IsZero() {
		t.Fatalf("pending escrow after completion = %v, %v", esc, err)
	}
	total, err := l.TotalBalance()
	if err != nil || total != currency.FromG(100) {
		t.Fatalf("total = %v, %v", total, err)
	}
}

func TestCrossShardInsufficientFundsIsClean(t *testing.T) {
	l := newTestLedger(t, 3)
	from, to := fundPair(t, l, false, currency.FromG(5))
	if _, err := l.Transfer(from, to, currency.FromG(10), accounts.TransferOptions{}); !errors.Is(err, accounts.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	esc, _ := l.PendingEscrow()
	if !esc.IsZero() {
		t.Fatalf("failed transfer left escrow %v", esc)
	}
	fa, _ := l.Details(from)
	if fa.AvailableBalance != currency.FromG(5) {
		t.Fatalf("drawer balance disturbed: %v", fa.AvailableBalance)
	}
}

func TestCrossShardFromLockedRedemptionPath(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(50))
	if err := l.CheckFunds(from, currency.FromG(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Transfer(from, to, currency.FromG(20), accounts.TransferOptions{FromLocked: true}); err != nil {
		t.Fatal(err)
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if !fa.LockedBalance.IsZero() || fa.AvailableBalance != currency.FromG(30) || ta.AvailableBalance != currency.FromG(20) {
		t.Fatalf("after locked redemption: from=%v/%v to=%v", fa.AvailableBalance, fa.LockedBalance, ta.AvailableBalance)
	}
}

func TestCrossShardCancelTransfer(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(100))
	tr, err := l.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CancelTransfer(tr.TransactionID); err != nil {
		t.Fatal(err)
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if fa.AvailableBalance != currency.FromG(100) || !ta.AvailableBalance.IsZero() {
		t.Fatalf("after cancel: from=%v to=%v", fa.AvailableBalance, ta.AvailableBalance)
	}
	if err := l.CancelTransfer(tr.TransactionID); !errors.Is(err, accounts.ErrAlreadyCancelled) {
		t.Fatalf("double cancel = %v, want ErrAlreadyCancelled", err)
	}
}

// TestCancelTransferRetryAfterCrashDoesNotDoubleReverse pins the
// write-ahead reversal-ID protocol: a cancel that dies at any durable
// boundary of its compensating transfer — including after the reversal
// fully completed but before the cancelled marks landed — must, on
// retry, re-drive the same reversal exactly once.
func TestCancelTransferRetryAfterCrashDoesNotDoubleReverse(t *testing.T) {
	for _, step := range []Step{StepPrepared, StepCreditApplied, StepFinalized} {
		t.Run(step.String(), func(t *testing.T) {
			l := newTestLedger(t, 4)
			from, to := fundPair(t, l, false, currency.FromG(100))
			tr, err := l.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// First cancel attempt dies at the chosen boundary of the
			// compensating transfer.
			l.CrashHook = func(gid string, s Step) error {
				if s == step {
					return errors.New("injected coordinator crash")
				}
				return nil
			}
			if err := l.CancelTransfer(tr.TransactionID); err == nil && step != StepFinalized {
				t.Fatalf("cancel survived an injected crash at %s", step)
			}
			l.CrashHook = nil
			// Simulate the restart recovery a real reboot performs.
			if err := l.Recover(); err != nil {
				t.Fatal(err)
			}
			// Retry completes without paying the drawer twice.
			if err := l.CancelTransfer(tr.TransactionID); err != nil && !errors.Is(err, accounts.ErrAlreadyCancelled) {
				t.Fatal(err)
			}
			fa, _ := l.Details(from)
			ta, _ := l.Details(to)
			if fa.AvailableBalance != currency.FromG(100) || !ta.AvailableBalance.IsZero() {
				t.Fatalf("after crash+retry cancel at %s: from=%v to=%v (double reversal?)", step, fa.AvailableBalance, ta.AvailableBalance)
			}
			got, err := l.GetTransfer(tr.TransactionID)
			if err != nil || !got.Cancelled {
				t.Fatalf("original not marked cancelled: %+v, %v", got, err)
			}
			if err := l.CancelTransfer(tr.TransactionID); !errors.Is(err, accounts.ErrAlreadyCancelled) {
				t.Fatalf("third cancel = %v, want ErrAlreadyCancelled", err)
			}
			total, err := l.TotalBalance()
			if err != nil || total != currency.FromG(100) {
				t.Fatalf("conservation after cancel retries: %v, %v", total, err)
			}
		})
	}
}

// TestCancelTransferResolvesLiveOutboxRowFirst cancels a transfer that
// was abandoned at its commit point: the drawer is debited, the credit
// has not landed. Cancel must land it before pulling the money back —
// reversing first would overdraw (or refuse on) a recipient that never
// received the funds.
func TestCancelTransferResolvesLiveOutboxRowFirst(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(100))
	l.CrashHook = func(string, Step) error { return errors.New("injected coordinator crash") }
	_, err := l.Transfer(from, to, currency.FromG(40), accounts.TransferOptions{DedupKey: "live-1"})
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("transfer = %v, want ErrInDoubt", err)
	}
	l.CrashHook = nil
	mk, err := l.mgrs[l.ShardFor(from)].GetDedup("live-1")
	if err != nil || mk == nil {
		t.Fatal("no marker at the commit point", err)
	}
	if esc, _ := l.PendingEscrow(); esc != currency.FromG(40) {
		t.Fatalf("escrow before cancel = %v, want the 40 G$ in the outbox row", esc)
	}
	if err := l.CancelTransfer(mk.TxID); err != nil {
		t.Fatal(err)
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if fa.AvailableBalance != currency.FromG(100) || !ta.AvailableBalance.IsZero() {
		t.Fatalf("after cancel: from=%v to=%v", fa.AvailableBalance, ta.AvailableBalance)
	}
	if esc, err := l.PendingEscrow(); err != nil || !esc.IsZero() {
		t.Fatalf("escrow after cancel: %v, %v", esc, err)
	}
	if total, err := l.TotalBalance(); err != nil || total != currency.FromG(100) {
		t.Fatalf("conservation: %v, %v", total, err)
	}
}

// TestCommitPointCarriesReleaseAndCallback checks what an instrument
// redemption needs from a cross-shard transfer: the unspent lock is
// released and the caller's rows are written in the commit-point
// transaction on the drawer's shard — and a callback error aborts the
// transfer with nothing written.
func TestCommitPointCarriesReleaseAndCallback(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(50))
	if err := l.CheckFunds(from, currency.FromG(20)); err != nil {
		t.Fatal(err)
	}
	fs := l.ShardFor(from)
	if err := l.stores[fs].EnsureTable("instr"); err != nil {
		t.Fatal(err)
	}
	refuse := errors.New("instrument already spent")
	_, err := l.Transfer(from, to, currency.FromG(15), accounts.TransferOptions{
		FromLocked: true, ReleaseLocked: currency.FromG(5),
		InTx: func(*db.Tx) error { return refuse },
	})
	if !errors.Is(err, refuse) {
		t.Fatalf("refusing callback = %v", err)
	}
	if fa, _ := l.Details(from); fa.LockedBalance != currency.FromG(20) {
		t.Fatalf("refused transfer touched the lock: %v", fa.LockedBalance)
	}
	// Stop at the commit point: everything the drawer's side owes is
	// already there.
	l.CrashHook = func(string, Step) error { return errors.New("injected coordinator crash") }
	_, err = l.Transfer(from, to, currency.FromG(15), accounts.TransferOptions{
		FromLocked: true, ReleaseLocked: currency.FromG(5),
		InTx: func(tx *db.Tx) error { return tx.Put("instr", "s-1", []byte("redeemed")) },
	})
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("transfer = %v, want ErrInDoubt", err)
	}
	l.CrashHook = nil
	fa, _ := l.Details(from)
	if !fa.LockedBalance.IsZero() || fa.AvailableBalance != currency.FromG(35) {
		t.Fatalf("at the commit point: available=%v locked=%v, want 35/0", fa.AvailableBalance, fa.LockedBalance)
	}
	if raw, err := l.stores[fs].Get("instr", "s-1"); err != nil || string(raw) != "redeemed" {
		t.Fatalf("callback row: %q, %v", raw, err)
	}
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if ta, _ := l.Details(to); ta.AvailableBalance != currency.FromG(15) {
		t.Fatalf("recipient after recovery = %v", ta.AvailableBalance)
	}
	if total, err := l.TotalBalance(); err != nil || total != currency.FromG(50) {
		t.Fatalf("conservation: %v, %v", total, err)
	}
}

// TestOldestInDoubtGauge reads the operator's view of a stuck transfer:
// the gauge is the age of the oldest live outbox row and drops to zero
// once recovery has completed it; the four step histograms stay
// registered under their names.
func TestOldestInDoubtGauge(t *testing.T) {
	stores := make([]*db.Store, 3)
	for i := range stores {
		stores[i] = db.MustOpenMemory()
	}
	l, err := New(stores, Config{Now: func() time.Time { return testEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.SetObs(reg)
	from, to := fundPair(t, l, false, currency.FromG(10))
	gauge := func(at time.Time) int64 {
		t.Helper()
		for _, g := range reg.SnapshotAt(at).Gauges {
			if g.Name == "shard.2pc.oldest_in_doubt_seconds" {
				return g.Value
			}
		}
		t.Fatal("gauge shard.2pc.oldest_in_doubt_seconds not registered")
		return 0
	}
	if got := gauge(testEpoch.Add(time.Hour)); got != 0 {
		t.Fatalf("gauge with no outbox row = %d", got)
	}
	l.CrashHook = func(string, Step) error { return errors.New("injected coordinator crash") }
	_, _ = l.Transfer(from, to, currency.FromG(1), accounts.TransferOptions{})
	l.CrashHook = nil
	if got := gauge(testEpoch.Add(90 * time.Second)); got != 90 {
		t.Fatalf("gauge 90 s after the commit point = %d", got)
	}
	if err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := gauge(testEpoch.Add(time.Hour)); got != 0 {
		t.Fatalf("gauge after recovery = %d", got)
	}
	names := map[string]bool{}
	for _, h := range reg.SnapshotAt(testEpoch).Hists {
		names[h.Name] = true
	}
	for _, step := range []string{"prepare", "decide", "credit", "finalize"} {
		if !names["shard.2pc."+step] {
			t.Fatalf("histogram shard.2pc.%s no longer registered", step)
		}
	}
}

func TestCrossShardCloseAccountSweep(t *testing.T) {
	l := newTestLedger(t, 4)
	from, to := fundPair(t, l, false, currency.FromG(25))
	if err := l.CloseAccount(from, to); err != nil {
		t.Fatal(err)
	}
	fa, _ := l.Details(from)
	ta, _ := l.Details(to)
	if !fa.Closed || !fa.AvailableBalance.IsZero() || ta.AvailableBalance != currency.FromG(25) {
		t.Fatalf("after sweep close: from closed=%v bal=%v, to=%v", fa.Closed, fa.AvailableBalance, ta.AvailableBalance)
	}
}

func TestDuplicateCertificateAcrossShards(t *testing.T) {
	l := newTestLedger(t, 4)
	if _, err := l.CreateAccount("CN=dup", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CreateAccount("CN=dup", "", ""); !errors.Is(err, accounts.ErrDuplicateIdentity) {
		t.Fatalf("duplicate create = %v, want ErrDuplicateIdentity", err)
	}
	// Different currency is allowed, wherever it lands.
	if _, err := l.CreateAccount("CN=dup", "", "USD"); err != nil {
		t.Fatalf("different-currency create = %v", err)
	}
}

func TestSingleShardDelegatesWithoutPCTables(t *testing.T) {
	st := db.MustOpenMemory()
	l, err := New([]*db.Store{st}, Config{Now: func() time.Time { return testEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.CreateAccount("CN=solo", "", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.CreateAccount("CN=solo2", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Deposit(a.AccountID, currency.FromG(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Transfer(a.AccountID, b.AccountID, currency.FromG(4), accounts.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	// A 1-shard ledger must not grow outbox tables: its store stays
	// byte-compatible with an unsharded deployment's.
	for _, table := range st.Tables() {
		if table == tablePC || table == tablePCApplied {
			t.Fatalf("1-shard ledger created 2PC table %q", table)
		}
	}
}
