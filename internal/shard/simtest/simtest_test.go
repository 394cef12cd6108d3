package simtest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/shard"
)

var allSteps = []shard.Step{shard.StepPrepared, shard.StepCreditApplied, shard.StepFinalized}

// TestEveryCrashPointConverges enumerates every step boundary × every
// victim, kills exactly there, reboots the deployment from its journals
// and asserts the transfer completed exactly once. StepPrepared is the
// commit point, so every schedule that reaches a hook has passed it:
// none may roll back. Conservation (balances + escrow) must already
// hold on the mid-crash durable state, before any recovery runs.
func TestEveryCrashPointConverges(t *testing.T) {
	victims := []Victim{KillCoordinator, KillDebitShard, KillCreditShard}
	const fund = 100
	amount := currency.FromG(30)

	for _, step := range allSteps {
		for _, victim := range victims {
			t.Run(fmt.Sprintf("%s/%s", step, victim), func(t *testing.T) {
				h, err := New(4)
				if err != nil {
					t.Fatal(err)
				}
				from, to, err := h.CrossShardPair("crash", currency.FromG(fund))
				if err != nil {
					t.Fatal(err)
				}

				err = h.TransferWithCrash(from, to, amount, &Crash{Step: step, Victim: victim})
				if err != nil && !errors.Is(err, shard.ErrInDoubt) {
					t.Fatalf("past the commit point the only error is ErrInDoubt, got %v", err)
				}
				// An acknowledged transfer has its credit on the credit
				// shard already — the payee can read its payment.
				if err == nil {
					if ta, derr := h.Ledger().Details(to); derr != nil || ta.AvailableBalance != amount {
						t.Fatalf("acked before the credit landed: to=%+v, %v", ta, derr)
					}
				}
				if total, terr := h.TotalBalance(); terr != nil || total != currency.FromG(fund) {
					t.Fatalf("mid-crash conservation (balances + escrow): %v, %v", total, terr)
				}

				// Reboot everything from the journals; shard.New replays
				// recovery. Twice, to prove recovery is idempotent.
				for i := 0; i < 2; i++ {
					if err := h.Restart(); err != nil {
						t.Fatalf("restart %d: %v", i, err)
					}
				}
				if err := h.AssertConverged(currency.FromG(fund)); err != nil {
					t.Fatal(err)
				}

				fa, err := h.Ledger().Details(from)
				if err != nil {
					t.Fatal(err)
				}
				ta, err := h.Ledger().Details(to)
				if err != nil {
					t.Fatal(err)
				}
				if fa.AvailableBalance != currency.FromG(fund-30) || ta.AvailableBalance != amount {
					t.Fatalf("want applied exactly once; balances from=%v to=%v", fa.AvailableBalance, ta.AvailableBalance)
				}
				// Both sides hold exactly one copy of the §5.1 record.
				for _, id := range []accounts.ID{from, to} {
					st, err := h.Ledger().Statement(id, h.now.Add(-1e9), h.now.Add(1e9))
					if err != nil {
						t.Fatal(err)
					}
					if len(st.Transfers) != 1 || st.Transfers[0].Amount != amount {
						t.Fatalf("statement of %s after recovery: %+v", id, st.Transfers)
					}
				}
				if !fa.LockedBalance.IsZero() || !ta.LockedBalance.IsZero() {
					t.Fatalf("locked residue after recovery: from=%v to=%v", fa.LockedBalance, ta.LockedBalance)
				}
			})
		}
	}
}

// TestCrashBeforeCommitPointLeavesNoTrace kills the debit shard before
// the commit-point transaction can land: the transfer fails cleanly,
// and after a reboot there is no outbox row, no spent idempotency key
// and no moved money — the same key then executes fresh.
func TestCrashBeforeCommitPointLeavesNoTrace(t *testing.T) {
	h, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	from, to, err := h.CrossShardPair("early", currency.FromG(50))
	if err != nil {
		t.Fatal(err)
	}
	h.journals[h.Ledger().ShardFor(from)].Kill()
	_, err = h.Ledger().Transfer(from, to, currency.FromG(20), accounts.TransferOptions{DedupKey: "early-1"})
	if err == nil || errors.Is(err, shard.ErrInDoubt) {
		t.Fatalf("transfer on a dead debit shard = %v, want a clean failure", err)
	}
	if err := h.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := h.AssertConverged(currency.FromG(50)); err != nil {
		t.Fatal(err)
	}
	l := h.Ledger()
	if mk, err := l.Managers()[l.ShardFor(from)].GetDedup("early-1"); err != nil || mk != nil {
		t.Fatalf("idempotency key spent by a transfer that never committed: %+v, %v", mk, err)
	}
	for i, st := range l.Stores() {
		if n, err := st.Count("pc_transfers"); err != nil || n != 0 {
			t.Fatalf("shard %d holds %d outbox rows (%v)", i, n, err)
		}
	}
	if fa, _ := l.Details(from); fa.AvailableBalance != currency.FromG(50) {
		t.Fatalf("drawer balance %v after a transfer that never committed", fa.AvailableBalance)
	}
	if _, err := l.Transfer(from, to, currency.FromG(20), accounts.TransferOptions{DedupKey: "early-1"}); err != nil {
		t.Fatalf("same key after the clean failure: %v", err)
	}
	if ta, _ := l.Details(to); ta.AvailableBalance != currency.FromG(20) {
		t.Fatalf("recipient = %v, want 20 G$", ta.AvailableBalance)
	}
}

// TestCrashPointsFromLocked runs the cheque-redemption-shaped path
// (transfer out of locked funds, unspent remainder released in the
// commit-point transaction) through every schedule and checks the lock
// is consumed and the remainder released exactly once, never leaked.
func TestCrashPointsFromLocked(t *testing.T) {
	for _, step := range allSteps {
		for _, victim := range []Victim{KillCoordinator, KillDebitShard, KillCreditShard} {
			t.Run(fmt.Sprintf("%s/%s", step, victim), func(t *testing.T) {
				h, err := New(3)
				if err != nil {
					t.Fatal(err)
				}
				from, to, err := h.CrossShardPair("locked", currency.FromG(50))
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Ledger().CheckFunds(from, currency.FromG(20)); err != nil {
					t.Fatal(err)
				}

				l := h.Ledger()
				fs, ts := l.ShardFor(from), l.ShardFor(to)
				l.CrashHook = func(gid string, s shard.Step) error {
					if s != step {
						return nil
					}
					switch victim {
					case KillCoordinator:
						return ErrCrash
					case KillDebitShard:
						h.journals[fs].Kill()
					case KillCreditShard:
						h.journals[ts].Kill()
					}
					return nil
				}
				_, _ = l.Transfer(from, to, currency.FromG(15), accounts.TransferOptions{FromLocked: true, ReleaseLocked: currency.FromG(5)})
				l.CrashHook = nil

				if err := h.Restart(); err != nil {
					t.Fatal(err)
				}
				if err := h.AssertConverged(currency.FromG(50)); err != nil {
					t.Fatal(err)
				}
				fa, _ := h.Ledger().Details(from)
				ta, _ := h.Ledger().Details(to)
				if !fa.LockedBalance.IsZero() || fa.AvailableBalance != currency.FromG(35) || ta.AvailableBalance != currency.FromG(15) {
					t.Fatalf("want 15 paid and 5 released: from=%v/%v locked, to=%v", fa.AvailableBalance, fa.LockedBalance, ta.AvailableBalance)
				}
			})
		}
	}
}

// TestSeededCrashSchedule is the randomized soak: a fixed-seed PRNG
// drives a mixed same-shard/cross-shard transfer workload and keeps
// injecting random (step, victim) crashes, rebooting and recovering
// after each. A transfer moved money exactly once if it was acknowledged
// or left in doubt (it passed the commit point) and not at all otherwise;
// every recovery point must match that model balance for balance, with
// no escrow left. The fixed seed makes any failure exactly reproducible.
func TestSeededCrashSchedule(t *testing.T) {
	const (
		seed     = 0x9dB4_2026
		nShards  = 3
		nAccts   = 8
		perAcct  = 100
		rounds   = 40
		maxWhole = 5
	)
	rng := rand.New(rand.NewSource(seed))
	h, err := New(nShards)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]accounts.ID, nAccts)
	for i := range ids {
		id, err := h.CreateFunded(fmt.Sprintf("CN=soak-%d", i), currency.FromG(perAcct))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	want := currency.FromG(nAccts * perAcct)
	model := make(map[accounts.ID]currency.Amount, nAccts)
	for _, id := range ids {
		model[id] = currency.FromG(perAcct)
	}
	checkModel := func(when string) {
		t.Helper()
		if err := h.AssertConverged(want); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, id := range ids {
			a, err := h.Ledger().Details(id)
			if err != nil {
				t.Fatal(err)
			}
			if a.AvailableBalance != model[id] || !a.LockedBalance.IsZero() {
				t.Fatalf("%s: account %s = %v (locked %v), model says %v", when, id, a.AvailableBalance, a.LockedBalance, model[id])
			}
		}
	}

	steps := allSteps
	victims := []Victim{KillCoordinator, KillDebitShard, KillCreditShard}
	crashes := 0
	for round := 0; round < rounds; round++ {
		from := ids[rng.Intn(nAccts)]
		to := ids[rng.Intn(nAccts)]
		if from == to {
			continue
		}
		amount := currency.FromG(int64(1 + rng.Intn(maxWhole)))
		var crash *Crash
		if rng.Intn(2) == 0 {
			crash = &Crash{Step: steps[rng.Intn(len(steps))], Victim: victims[rng.Intn(len(victims))]}
		}
		if err := h.TransferWithCrash(from, to, amount, crash); err == nil || errors.Is(err, shard.ErrInDoubt) {
			model[from] = model[from].MustSub(amount)
			model[to] = model[to].MustAdd(amount)
		}
		if crash != nil {
			crashes++
			if err := h.Restart(); err != nil {
				t.Fatalf("round %d (%s/%s): restart: %v", round, crash.Step, crash.Victim, err)
			}
			checkModel(fmt.Sprintf("round %d (%s/%s)", round, crash.Step, crash.Victim))
		}
	}
	if crashes == 0 {
		t.Fatal("seed produced no crash schedules; raise rounds")
	}
	// Final sweep: recovery already ran after each crash; one more
	// restart must be a no-op.
	if err := h.Restart(); err != nil {
		t.Fatal(err)
	}
	checkModel("final")
}

// TestPinnedReversalIDSurvivesRestartSeeding covers the cancellation
// write-ahead across reboots: a cancel that crashed after pinning its
// ReversalID but before the reversal's commit point leaves the pin
// durable only inside the original transfer record's JSON. The
// transaction-ID allocator must reseed above that pin on every restart
// — a fresh transfer colliding with it would make a retried cancel
// adopt the wrong transfer as "reversal already done".
func TestPinnedReversalIDSurvivesRestartSeeding(t *testing.T) {
	h, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	from, to, err := h.CrossShardPair("pin", currency.FromG(50))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := h.Ledger().Transfer(from, to, currency.FromG(20), accounts.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The reversal debits the recipient's shard: with that shard dead
	// the pin lands (drawer shard) and the reversal never commits.
	h.journals[h.Ledger().ShardFor(to)].Kill()
	if err := h.Ledger().CancelTransfer(tr.TransactionID); err == nil {
		t.Fatal("cancel succeeded with the reversal's debit shard dead")
	}
	for i := 0; i < 2; i++ {
		if err := h.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	// The pin lives on the drawer-shard (authoritative) copy.
	drawerMgr := h.Ledger().Managers()[h.Ledger().ShardFor(from)]
	pinned, err := drawerMgr.GetTransfer(tr.TransactionID)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.ReversalID == 0 {
		t.Fatal("reversal ID pin did not survive the crash")
	}
	if _, err := h.Ledger().GetTransfer(pinned.ReversalID); !errors.Is(err, accounts.ErrNoSuchTransfer) {
		t.Fatalf("reversal %d ran before its commit point: %v", pinned.ReversalID, err)
	}
	// A fresh transfer must allocate past the pin.
	from2, to2, err := h.CrossShardPair("pin2", currency.FromG(10))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := h.Ledger().Transfer(from2, to2, currency.FromG(1), accounts.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.TransactionID <= pinned.ReversalID {
		t.Fatalf("fresh transfer got txid %d, colliding with pinned reversal %d", fresh.TransactionID, pinned.ReversalID)
	}
	// The retried cancel drives the pinned reversal exactly once.
	if err := h.Ledger().CancelTransfer(tr.TransactionID); err != nil {
		t.Fatal(err)
	}
	fa, _ := h.Ledger().Details(from)
	ta, _ := h.Ledger().Details(to)
	if fa.AvailableBalance != currency.FromG(50) || !ta.AvailableBalance.IsZero() {
		t.Fatalf("after restart+retry cancel: from=%v to=%v", fa.AvailableBalance, ta.AvailableBalance)
	}
	if err := h.AssertConverged(currency.FromG(60)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDoesNotDoubleCredit reboots with the outbox row still live
// several times in a row and checks the credit lands exactly once (the
// recipient-side TRANSFER record is the witness).
func TestRecoveryDoesNotDoubleCredit(t *testing.T) {
	h, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	from, to, err := h.CrossShardPair("double", currency.FromG(10))
	if err != nil {
		t.Fatal(err)
	}
	// Die right after the credit applied, before the outbox row is gone.
	err = h.TransferWithCrash(from, to, currency.FromG(4), &Crash{Step: shard.StepCreditApplied, Victim: KillCoordinator})
	if !errors.Is(err, shard.ErrInDoubt) {
		t.Fatalf("coordinator error = %v, want ErrInDoubt", err)
	}
	for i := 0; i < 3; i++ {
		if err := h.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := h.Ledger().Details(to)
	if err != nil {
		t.Fatal(err)
	}
	if ta.AvailableBalance != currency.FromG(4) {
		t.Fatalf("recipient = %v after repeated recovery, want exactly 4 G$", ta.AvailableBalance)
	}
	if err := h.AssertConverged(currency.FromG(10)); err != nil {
		t.Fatal(err)
	}
}
