// Package simtest is the deterministic fault-injection harness for the
// sharded ledger's cross-shard transfer protocol. It stands up N shards
// on crash-survivable in-memory journals, drives cross-shard transfers
// to an exact step boundary, kills the coordinator or a participant
// shard there, "reboots" every store by replaying its journal, runs
// recovery, and asserts that the ledger converged: every transfer past
// its commit point applied exactly once, no escrow or outbox row left
// behind, and not a micro-G$ of money created or destroyed.
//
// Everything is deterministic: crash points are enumerated exhaustively
// (every step boundary × every victim) and the randomized soak runs on
// a fixed-seed PRNG, so a failure reproduces byte-for-byte.
package simtest

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/shard"
)

// Victim selects which process dies at the chosen step boundary.
type Victim int

// The processes the harness can kill.
const (
	// KillCoordinator abandons the in-flight protocol at the boundary:
	// everything durable stays, nothing further runs until recovery.
	KillCoordinator Victim = iota
	// KillDebitShard makes the debit shard's journal refuse every write
	// from the boundary on: the coordinator's next debit-shard step
	// fails and it must leave a recoverable picture.
	KillDebitShard
	// KillCreditShard does the same to the credit shard.
	KillCreditShard
)

// String names a victim for test output.
func (v Victim) String() string {
	switch v {
	case KillCoordinator:
		return "coordinator"
	case KillDebitShard:
		return "debit-shard"
	case KillCreditShard:
		return "credit-shard"
	default:
		return fmt.Sprintf("victim(%d)", int(v))
	}
}

// ErrCrash is the injected coordinator-death error.
var ErrCrash = errors.New("simtest: injected crash")

// Journal is a crash-survivable in-memory journal: batches accumulate
// across store generations (a "reboot" replays them into a fresh
// store), and Kill makes every subsequent append fail the way a dead
// disk would — atomically, before the store applies anything, which is
// exactly the contract the db layer's write-ahead ordering guarantees.
type Journal struct {
	mu      sync.Mutex
	batches [][]db.Entry
	dead    bool
}

// NewJournal returns an empty crash-survivable journal.
func NewJournal() *Journal { return &Journal{} }

// Kill makes every subsequent append fail until Revive.
func (j *Journal) Kill() {
	j.mu.Lock()
	j.dead = true
	j.mu.Unlock()
}

// Revive clears the failure, modelling the shard process restarting
// with its durable log intact.
func (j *Journal) Revive() {
	j.mu.Lock()
	j.dead = false
	j.mu.Unlock()
}

// Append implements db.Journal.
func (j *Journal) Append(e db.Entry) error { return j.AppendBatch([]db.Entry{e}) }

// AppendBatch implements db.Journal: atomic, all-or-nothing.
func (j *Journal) AppendBatch(entries []db.Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return fmt.Errorf("simtest: journal dead (injected shard crash)")
	}
	cp := make([]db.Entry, len(entries))
	copy(cp, entries)
	j.batches = append(j.batches, cp)
	return nil
}

// Replay implements db.Journal.
func (j *Journal) Replay(apply func(db.Entry) error) error {
	j.mu.Lock()
	batches := j.batches
	j.mu.Unlock()
	for _, b := range batches {
		for _, e := range b {
			if err := apply(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements db.Journal. It is a no-op: the harness reopens the
// same journal for the next store generation.
func (j *Journal) Close() error { return nil }

// Harness is one simulated sharded deployment under fault injection.
type Harness struct {
	Shards   int
	journals []*Journal
	ledger   *shard.Ledger
	now      time.Time
}

// New builds a harness with n shards, empty and recovered.
func New(n int) (*Harness, error) {
	h := &Harness{Shards: n, now: time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)}
	h.journals = make([]*Journal, n)
	for i := range h.journals {
		h.journals[i] = NewJournal()
	}
	if err := h.boot(); err != nil {
		return nil, err
	}
	return h, nil
}

// boot (re)builds every store from its journal and a fresh ledger over
// them; shard.New runs 2PC recovery as part of construction.
func (h *Harness) boot() error {
	stores := make([]*db.Store, h.Shards)
	for i, j := range h.journals {
		j.Revive()
		st, err := db.Open(j)
		if err != nil {
			return fmt.Errorf("simtest: reboot shard %d: %w", i, err)
		}
		stores[i] = st
	}
	l, err := shard.New(stores, shard.Config{Now: func() time.Time { return h.now }})
	if err != nil {
		return err
	}
	h.ledger = l
	return nil
}

// Restart models the whole deployment crashing and rebooting: every
// in-memory store is discarded and rebuilt from its journal, and
// recovery resolves whatever 2PC state survived.
func (h *Harness) Restart() error { return h.boot() }

// Ledger returns the current ledger generation.
func (h *Harness) Ledger() *shard.Ledger { return h.ledger }

// CreateFunded creates an account with the given balance.
func (h *Harness) CreateFunded(name string, funds currency.Amount) (accounts.ID, error) {
	a, err := h.ledger.CreateAccount(name, "", "")
	if err != nil {
		return "", err
	}
	if funds.IsPositive() {
		if err := h.ledger.Deposit(a.AccountID, funds); err != nil {
			return "", err
		}
	}
	return a.AccountID, nil
}

// CrossShardPair creates and funds two accounts guaranteed to live on
// different shards.
func (h *Harness) CrossShardPair(tag string, funds currency.Amount) (from, to accounts.ID, err error) {
	from, err = h.CreateFunded("CN=from-"+tag, funds)
	if err != nil {
		return "", "", err
	}
	for i := 0; i < 10000; i++ {
		id, err := h.CreateFunded(fmt.Sprintf("CN=to-%s-%d", tag, i), 0)
		if err != nil {
			return "", "", err
		}
		if h.ledger.ShardFor(id) != h.ledger.ShardFor(from) {
			return from, id, nil
		}
	}
	return "", "", fmt.Errorf("simtest: no cross-shard partner found for %s", from)
}

// Crash describes one injected failure: kill victim at the boundary
// immediately after step becomes durable.
type Crash struct {
	Step   shard.Step
	Victim Victim
}

// TransferWithCrash drives one cross-shard transfer with the given
// crash injected (nil = run clean). It returns the coordinator's error,
// which callers assert against the expected outcome; the harness is
// left un-restarted so tests can inspect the mid-crash durable state.
func (h *Harness) TransferWithCrash(from, to accounts.ID, amount currency.Amount, crash *Crash) error {
	l := h.ledger
	if crash != nil {
		fs, ts := l.ShardFor(from), l.ShardFor(to)
		l.CrashHook = func(gid string, step shard.Step) error {
			if step != crash.Step {
				return nil
			}
			switch crash.Victim {
			case KillCoordinator:
				return ErrCrash
			case KillDebitShard:
				h.journals[fs].Kill()
			case KillCreditShard:
				h.journals[ts].Kill()
			}
			return nil
		}
		defer func() { l.CrashHook = nil }()
	}
	_, err := l.Transfer(from, to, amount, accounts.TransferOptions{})
	return err
}

// TotalBalance returns the conservation quantity: all account balances
// plus in-flight escrow.
func (h *Harness) TotalBalance() (currency.Amount, error) {
	return h.ledger.TotalBalance()
}

// AssertConverged checks the post-recovery invariants: no pending
// escrow, no outbox rows on any shard, and the conservation total equal
// to want. It returns a descriptive error rather than failing a *testing.T
// so the soak test can wrap it with schedule context.
func (h *Harness) AssertConverged(want currency.Amount) error {
	esc, err := h.ledger.PendingEscrow()
	if err != nil {
		return err
	}
	if !esc.IsZero() {
		return fmt.Errorf("simtest: escrow %v left after recovery", esc)
	}
	for i, st := range h.ledger.Stores() {
		if n, err := st.Count("pc_transfers"); err != nil || n != 0 {
			return fmt.Errorf("simtest: shard %d holds %d outbox rows after recovery (%v)", i, n, err)
		}
	}
	total, err := h.ledger.TotalBalance()
	if err != nil {
		return err
	}
	if total != want {
		return fmt.Errorf("simtest: total %v after recovery, want %v (money %s)", total, want,
			direction(total, want))
	}
	return nil
}

func direction(got, want currency.Amount) string {
	if got.Cmp(want) > 0 {
		return "created"
	}
	return "destroyed"
}
