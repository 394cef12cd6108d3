package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/strhash"
)

// keyStripes is the shard count of the per-idempotency-key lock.
const keyStripes = 64

// Config configures a sharded Ledger.
type Config struct {
	// Bank and Branch number issued account IDs carry (defaults "01" /
	// "0001", matching accounts.Config).
	Bank   string
	Branch string
	// Now supplies timestamps; defaults to time.Now.
	Now func() time.Time
	// Vnodes is the virtual-node count per shard (0 = DefaultVnodes).
	// Every party computing placement — ledger, replicas, routed
	// clients — must agree on it.
	Vnodes int
}

// Ledger is the sharded accounts layer: the same operation surface as
// one accounts.Manager, spread over N independent stores. Each account
// lives entirely on the shard its ID hashes to (account row,
// transaction rows, its side of every transfer record), so single-
// account operations and same-shard transfers are exactly as cheap as
// on an unsharded ledger. Cross-shard transfers go through the 2PC
// coordinator in coord.go.
//
// Shard 0 doubles as the metadata shard: Store() hands it to the bank
// core for the administrator table, which is bank-global rather than
// account-partitioned. (Instrument registry rows are partitioned: each
// lives on its drawer's shard, via ShardStore.)
type Ledger struct {
	ring   *Ring
	stores []*db.Store
	mgrs   []*accounts.Manager
	now    func() time.Time

	txSeq   atomic.Uint64 // deployment-wide TransactionID allocator
	acctSeq atomic.Uint64 // deployment-wide account-number allocator

	// createMu serializes account creation and certificate renames:
	// the one-open-account-per-certificate-and-currency invariant spans
	// shards, and checking it needs a stable cross-shard view.
	createMu sync.Mutex

	// cancelMu serializes cross-shard cancellations: a cancel spans
	// several stores (pin reversal ID, run compensating 2PC, mark both
	// copies), and two concurrent cancels of the same transfer racing
	// through those steps could each run their own reversal.
	cancelMu sync.Mutex

	// keyMu serializes cross-shard transfers per idempotency key. The
	// op_dedup marker commits with the money, so racing executions of
	// one key are already safe; the stripe makes a retry wait for the
	// original's credit to be durable before it replays the outcome.
	keyMu [keyStripes]sync.Mutex

	// CrashHook, when set, is called after every durable protocol step with
	// the transfer's GID; returning an error abandons the in-flight
	// protocol at that boundary (simulating a coordinator crash). Test
	// instrumentation only — set it before the ledger serves traffic.
	CrashHook func(gid string, step Step) error

	// Telemetry handles (nil no-ops until SetObs; see internal/obs).
	mLocal      *obs.Counter   // same-shard transfers
	mCross      *obs.Counter   // cross-shard (2PC) transfers
	mInDoubt    *obs.Gauge     // transfers this process abandoned in-doubt
	m2pcPrepare *obs.Histogram // commit-point transaction (debit shard)
	m2pcDecide  *obs.Histogram // presumed-abort of a retired-protocol row (recovery only)
	m2pcCredit  *obs.Histogram // credit transaction (credit shard)
	m2pcFinal   *obs.Histogram // unawaited outbox-row cleanup

	// inDoubtLocal shadows mInDoubt so recovery never drives the gauge
	// negative: a fresh process's recoveries resolve in-doubt rows a
	// previous process left, which this gauge never counted.
	inDoubtLocal atomic.Int64
}

// SetObs attaches a telemetry registry: same/cross-shard transfer
// counters, per-step cross-shard latency histograms, the in-doubt gauge
// and the age of the oldest live outbox row.
// It also forwards to every shard store (OCC and journal instruments
// share the registry). Wiring-time only — call before the ledger
// serves traffic.
func (l *Ledger) SetObs(reg *obs.Registry) {
	l.mLocal = reg.Counter("shard.transfers.local")
	l.mCross = reg.Counter("shard.transfers.cross")
	l.mInDoubt = reg.Gauge("shard.2pc.in_doubt")
	l.m2pcPrepare = reg.Histogram("shard.2pc.prepare")
	l.m2pcDecide = reg.Histogram("shard.2pc.decide")
	l.m2pcCredit = reg.Histogram("shard.2pc.credit")
	l.m2pcFinal = reg.Histogram("shard.2pc.finalize")
	reg.GaugeFunc("shard.2pc.oldest_in_doubt_seconds", func(now time.Time) int64 {
		oldest := now
		_ = l.scanPC(func(rec *pcRecord) error {
			if rec.Date.Before(oldest) {
				oldest = rec.Date
			}
			return nil
		})
		return int64(now.Sub(oldest) / time.Second)
	})
	for _, st := range l.stores {
		st.SetObs(reg)
	}
}

// markInDoubt records a transfer this process abandoned mid-protocol.
func (l *Ledger) markInDoubt() {
	l.inDoubtLocal.Add(1)
	l.mInDoubt.Inc()
}

// resolveInDoubtMark drops the in-doubt gauge for a resolved transfer,
// but only down to what this process itself marked — startup recovery
// resolves rows a previous process left, which were never counted here.
func (l *Ledger) resolveInDoubtMark() {
	for {
		n := l.inDoubtLocal.Load()
		if n <= 0 {
			return
		}
		if l.inDoubtLocal.CompareAndSwap(n, n-1) {
			l.mInDoubt.Dec()
			return
		}
	}
}

// New builds a sharded ledger over the given stores (one per shard, at
// least one). Each store gets its own accounts.Manager sharing one
// transaction-ID allocator; the outbox table is created when sharding
// is real (N > 1), and any cross-shard transfers a crash left past their
// commit point are completed before New returns.
//
// The shard count is fixed by the stores slice and must match the data:
// reopening existing shards under a different count would strand
// accounts on shards their IDs no longer hash to (resharding requires a
// migration, which this layer does not perform).
func New(stores []*db.Store, cfg Config) (*Ledger, error) {
	if len(stores) == 0 {
		return nil, errors.New("shard: ledger needs at least one store")
	}
	ring, err := NewRing(len(stores), cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := &Ledger{ring: ring, stores: stores, now: cfg.Now}
	alloc := func() uint64 { return l.txSeq.Add(1) }
	for _, st := range stores {
		mgr, err := accounts.NewManager(st, accounts.Config{
			Bank: cfg.Bank, Branch: cfg.Branch, Now: cfg.Now, TxIDAlloc: alloc,
		})
		if err != nil {
			return nil, err
		}
		l.mgrs = append(l.mgrs, mgr)
	}
	// Seed the deployment-wide counters above every shard's history.
	var txMax, acctMax uint64
	for _, mgr := range l.mgrs {
		if n := mgr.LastTransactionID(); n > txMax {
			txMax = n
		}
		if n := mgr.LastAccountNumber(); n > acctMax {
			acctMax = n
		}
	}
	if len(stores) > 1 {
		for _, st := range stores {
			if err := st.EnsureTable(tablePC); err != nil {
				return nil, err
			}
			// A retired-protocol row an older binary left may carry a
			// transaction ID newer than any §5.1 record (its prepare was
			// durable before the transaction rows were written); the
			// allocator must clear it too.
			err := st.Scan(tablePC, func(key string, _ []byte) bool {
				if n, err := strconv.ParseUint(key, 10, 64); err == nil && n > txMax {
					txMax = n
				}
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		// Likewise reversal IDs pinned by a cancellation that crashed
		// before its compensating transfer wrote anything: the pin
		// lives only inside the original transfer record's value.
		for _, mgr := range l.mgrs {
			n, err := mgr.MaxReversalID()
			if err != nil {
				return nil, err
			}
			if n > txMax {
				txMax = n
			}
		}
		// And transaction IDs pinned in op_dedup markers: an older
		// binary pinned a keyed cross-shard transfer's ID before driving
		// it, so its crash in between left the ID only in the marker.
		for _, mgr := range l.mgrs {
			n, err := mgr.MaxDedupTxID()
			if err != nil {
				return nil, err
			}
			if n > txMax {
				txMax = n
			}
		}
	}
	l.txSeq.Store(txMax)
	l.acctSeq.Store(acctMax)
	if err := l.Recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// Ring returns the ledger's placement ring.
func (l *Ledger) Ring() *Ring { return l.ring }

// AllocTxID allocates one deployment-wide transaction ID. Callers that
// pin an ID before driving a transfer (write-ahead idempotency, like
// the usage settlement pipeline) must also record the pin durably and
// re-seed the allocator above it at startup via SeedTxIDsAbove —
// otherwise a reboot could hand the same ID to an unrelated transfer.
func (l *Ledger) AllocTxID() uint64 { return l.txSeq.Add(1) }

// SeedTxIDsAbove raises the transaction-ID allocator to at least n.
// Subsystems that pin allocated IDs in stores the ledger does not scan
// at startup (e.g. the usage pipeline's intake spool) call this with
// their highest pinned ID before the ledger serves traffic, so a fresh
// transfer can never collide with a pinned-but-unfinished one.
func (l *Ledger) SeedTxIDsAbove(n uint64) {
	for {
		cur := l.txSeq.Load()
		if cur >= n || l.txSeq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// TransferWithID runs a transfer under a caller-pinned transaction ID.
// The pin makes retries idempotent at the caller's layer: a driver that
// durably records the ID before calling can, after a crash, check
// GetTransfer(txID) to learn whether the money already moved and
// re-drive this exact transfer (same GID) if not. Same-shard pairs
// cannot pin (the single-store path allocates inside the manager), so
// they are refused — pinning callers route same-shard work through the
// ordinary Transfer path, whose single atomic transaction needs no pin.
func (l *Ledger) TransferWithID(txID uint64, drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	if txID == 0 {
		return nil, errors.New("shard: TransferWithID requires a pinned transaction ID")
	}
	if !amount.IsPositive() {
		return nil, accounts.ErrBadAmount
	}
	if drawer == recipient {
		return nil, errors.New("accounts: cannot transfer to self")
	}
	fs, ts := l.ring.ShardFor(string(drawer)), l.ring.ShardFor(string(recipient))
	if fs == ts {
		return nil, errors.New("shard: TransferWithID is cross-shard only")
	}
	return l.crossTransfer(txID, drawer, recipient, amount, opts, false)
}

// ResolveInDoubt completes one pinned transfer exactly as startup
// recovery would: a live outbox row is re-driven (credit, cleanup),
// nothing is a no-op — after it returns, GetTransfer(txID) says whether
// the transfer happened. debitShard is the shard the transfer debits
// (where its outbox row lives).
func (l *Ledger) ResolveInDoubt(debitShard int, txID uint64) error {
	if debitShard < 0 || debitShard >= len(l.stores) {
		return fmt.Errorf("shard: debit shard %d out of range [0,%d)", debitShard, len(l.stores))
	}
	return l.recoverOne(debitShard, gidFor(txID))
}

// Shards returns the shard count.
func (l *Ledger) Shards() int { return len(l.stores) }

// ShardFor returns the shard index owning an account ID.
func (l *Ledger) ShardFor(id accounts.ID) int { return l.ring.ShardFor(string(id)) }

// Stores returns the per-shard stores, in shard order.
func (l *Ledger) Stores() []*db.Store { return l.stores }

// Managers returns the per-shard account managers, in shard order.
func (l *Ledger) Managers() []*accounts.Manager { return l.mgrs }

// ShardStore returns shard i's store (the usage/micropay settlement
// interface shape; equivalent to Stores()[i]).
func (l *Ledger) ShardStore(i int) *db.Store { return l.stores[i] }

// ShardManager returns shard i's accounts manager.
func (l *Ledger) ShardManager(i int) *accounts.Manager { return l.mgrs[i] }

// Store returns the metadata shard's store (shard 0), where the bank
// core keeps its administrator table.
func (l *Ledger) Store() *db.Store { return l.stores[0] }

// ShardTopology reports the placement parameters — shard count and
// virtual nodes per shard — that let any party recompute account
// placement locally.
func (l *Ledger) ShardTopology() (shards, vnodes int) { return len(l.stores), l.ring.Vnodes() }

// mgrFor routes an account ID to its owning manager.
func (l *Ledger) mgrFor(id accounts.ID) *accounts.Manager {
	return l.mgrs[l.ring.ShardFor(string(id))]
}

// CreateAccount allocates a deployment-wide account number, places the
// ID on its ring shard, and creates the record there. The one-open-
// account-per-certificate-and-currency invariant is enforced across all
// shards under createMu.
func (l *Ledger) CreateAccount(certName, orgName string, cur currency.Code) (*accounts.Account, error) {
	if certName == "" {
		return nil, errors.New("accounts: empty certificate name")
	}
	if cur == "" {
		cur = currency.GridDollar
	}
	if !cur.Valid() {
		return nil, fmt.Errorf("accounts: invalid currency %q", cur)
	}
	l.createMu.Lock()
	defer l.createMu.Unlock()
	for _, mgr := range l.mgrs {
		_, err := mgr.FindByCertificate(certName, cur)
		if err == nil {
			return nil, fmt.Errorf("%w: %s (%s)", accounts.ErrDuplicateIdentity, certName, cur)
		}
		if !errors.Is(err, accounts.ErrNotFound) {
			// A failing shard must not silently disable the uniqueness
			// invariant — refuse the create rather than guess.
			return nil, err
		}
	}
	id := accounts.ID(fmt.Sprintf("%s-%s-%08d", l.mgrs[0].BankNumber(), l.mgrs[0].BranchNumber(), l.acctSeq.Add(1)))
	return l.mgrFor(id).CreateAccountWithID(id, certName, orgName, cur)
}

// Details routes §5.2 Request Account Details to the owning shard.
func (l *Ledger) Details(id accounts.ID) (*accounts.Account, error) {
	return l.mgrFor(id).Details(id)
}

// FindByCertificate searches every shard, returning the open account
// with the lowest ID (matching the unsharded ordering guarantee). A
// shard that fails to answer surfaces its error — a store fault must
// not masquerade as "no account".
func (l *Ledger) FindByCertificate(certName string, cur currency.Code) (*accounts.Account, error) {
	var best *accounts.Account
	for _, mgr := range l.mgrs {
		a, err := mgr.FindByCertificate(certName, cur)
		if err != nil {
			if errors.Is(err, accounts.ErrNotFound) {
				continue
			}
			return nil, err
		}
		if best == nil || a.AccountID < best.AccountID {
			best = a
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: certificate %s", accounts.ErrNotFound, certName)
	}
	return best, nil
}

// UpdateDetails routes to the owning shard, enforcing the certificate-
// name uniqueness check across all shards first.
func (l *Ledger) UpdateDetails(id accounts.ID, certName, orgName string) (*accounts.Account, error) {
	if certName == "" {
		return nil, errors.New("accounts: empty certificate name")
	}
	l.createMu.Lock()
	defer l.createMu.Unlock()
	owner := l.mgrFor(id)
	cur, err := owner.Details(id)
	if err != nil {
		return nil, err
	}
	for _, mgr := range l.mgrs {
		if mgr == owner {
			continue // the owner's own check runs inside UpdateDetails
		}
		other, err := mgr.FindByCertificate(certName, cur.Currency)
		if err != nil {
			if errors.Is(err, accounts.ErrNotFound) {
				continue
			}
			return nil, err
		}
		if other.AccountID != id {
			return nil, fmt.Errorf("%w: %s", accounts.ErrDuplicateIdentity, certName)
		}
	}
	return owner.UpdateDetails(id, certName, orgName)
}

// CheckFunds routes the §3.4 fund lock to the owning shard.
func (l *Ledger) CheckFunds(id accounts.ID, amount currency.Amount) error {
	return l.mgrFor(id).CheckFunds(id, amount)
}

// Unlock routes a lock release to the owning shard.
func (l *Ledger) Unlock(id accounts.ID, amount currency.Amount) error {
	return l.mgrFor(id).Unlock(id, amount)
}

// Transfer moves funds between any two accounts: a single-store ledger
// transaction when both hash to the same shard, the commit-point
// protocol of coord.go when they do not.
func (l *Ledger) Transfer(drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error) {
	if !amount.IsPositive() {
		return nil, accounts.ErrBadAmount
	}
	if drawer == recipient {
		return nil, errors.New("accounts: cannot transfer to self")
	}
	fs, ts := l.ring.ShardFor(string(drawer)), l.ring.ShardFor(string(recipient))
	if fs == ts {
		// Single-store path: the manager handles DedupKey inside its
		// one atomic transaction.
		l.mLocal.Inc()
		return l.mgrs[fs].Transfer(drawer, recipient, amount, opts)
	}
	l.mCross.Inc()
	if opts.DedupKey != "" {
		mu := &l.keyMu[strhash.FNV32a(opts.DedupKey)%keyStripes]
		mu.Lock()
		defer mu.Unlock()
	}
	return l.crossTransfer(0, drawer, recipient, amount, opts, false)
}

// Statement routes to the owning shard. Both sides of a cross-shard
// transfer carry their own copy of the TRANSFER record, so each
// account's statement is complete on its own shard.
func (l *Ledger) Statement(id accounts.ID, start, end time.Time) (*accounts.Statement, error) {
	return l.mgrFor(id).Statement(id, start, end)
}

// GetTransfer finds a transfer by transaction ID, searching shards in
// order (a cross-shard transfer is recorded on both of its shards). A
// shard that fails to answer surfaces its error rather than reading as
// "no such transfer".
func (l *Ledger) GetTransfer(txID uint64) (*accounts.Transfer, error) {
	for _, mgr := range l.mgrs {
		tr, err := mgr.GetTransfer(txID)
		if err == nil {
			return tr, nil
		}
		if !errors.Is(err, accounts.ErrNoSuchTransfer) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: %d", accounts.ErrNoSuchTransfer, txID)
}

// TotalBalance sums every shard's account balances plus the funds
// currently escrowed in in-flight cross-shard transfers — the
// deployment-wide conservation quantity (only deposits and withdrawals
// change it).
func (l *Ledger) TotalBalance() (currency.Amount, error) {
	var total currency.Amount
	for _, mgr := range l.mgrs {
		t, err := mgr.TotalBalance()
		if err != nil {
			return 0, err
		}
		total = total.MustAdd(t)
	}
	escrow, err := l.PendingEscrow()
	if err != nil {
		return 0, err
	}
	return total.MustAdd(escrow), nil
}

// PendingEscrow sums the amounts held in outbox rows whose credit has
// not yet landed: money that has left a drawer and not yet reached a
// recipient. Zero on a quiesced, recovered ledger — and zero for a row
// that merely awaits its cleanup.
func (l *Ledger) PendingEscrow() (currency.Amount, error) {
	var total currency.Amount
	err := l.scanPC(func(rec *pcRecord) error {
		_, err := l.mgrFor(rec.To).GetTransfer(rec.TxID)
		if errors.Is(err, accounts.ErrNoSuchTransfer) {
			total = total.MustAdd(rec.Amount)
			return nil
		}
		return err // nil: the credit landed
	})
	return total, err
}

// scanPC visits every outbox row on every shard.
func (l *Ledger) scanPC(visit func(rec *pcRecord) error) error {
	if len(l.stores) == 1 {
		return nil
	}
	for _, st := range l.stores {
		var visitErr error
		err := st.Scan(tablePC, func(key string, value []byte) bool {
			rec, err := decodePC(key, value)
			if err == nil {
				err = visit(rec)
			}
			visitErr = err
			return err == nil
		})
		if err != nil {
			return err
		}
		if visitErr != nil {
			return visitErr
		}
	}
	return nil
}

// Accounts lists every account across all shards, in ID order.
func (l *Ledger) Accounts() ([]accounts.Account, error) {
	var out []accounts.Account
	for _, mgr := range l.mgrs {
		as, err := mgr.Accounts()
		if err != nil {
			return nil, err
		}
		out = append(out, as...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AccountID < out[j].AccountID })
	return out, nil
}

// Deposit credits an account on its shard (§5.2.1).
func (l *Ledger) Deposit(id accounts.ID, amount currency.Amount) error {
	return l.mgrFor(id).Admin().Deposit(id, amount)
}

// Withdraw debits an account on its shard (§5.2.1).
func (l *Ledger) Withdraw(id accounts.ID, amount currency.Amount) error {
	return l.mgrFor(id).Admin().Withdraw(id, amount)
}

// ChangeCreditLimit sets an account's credit limit on its shard.
func (l *Ledger) ChangeCreditLimit(id accounts.ID, limit currency.Amount) error {
	return l.mgrFor(id).Admin().ChangeCreditLimit(id, limit)
}

// CancelTransfer reverses a transfer (§5.2.1). Same-shard transfers
// delegate to the shard's admin module. Cross-shard transfers run a
// compensating cross-shard transfer in the opposite direction under a
// write-ahead reversal ID: the ID is durably pinned on the original
// record's authoritative (drawer-shard) copy before any money moves,
// so a cancel that crashes anywhere — even after the reversal fully
// completed but before the cancelled marks landed — is re-driven
// idempotently on retry instead of paying the drawer twice.
func (l *Ledger) CancelTransfer(txID uint64) error {
	tr, err := l.GetTransfer(txID)
	if err != nil {
		return err
	}
	fs, ts := l.ring.ShardFor(string(tr.DrawerAccountID)), l.ring.ShardFor(string(tr.RecipientAccountID))
	if fs == ts {
		return l.mgrs[fs].Admin().CancelTransfer(txID)
	}
	l.cancelMu.Lock()
	defer l.cancelMu.Unlock()
	// The transfer itself may still be between its commit point and its
	// credit; land it before pulling the money back.
	if err := l.recoverOne(fs, gidFor(txID)); err != nil {
		return err
	}
	// The drawer-shard copy is authoritative for the cancelled flag and
	// the reversal ID.
	auth, err := l.mgrs[fs].GetTransfer(txID)
	if err != nil {
		return err
	}
	if auth.Cancelled {
		return fmt.Errorf("%w: %d", accounts.ErrAlreadyCancelled, txID)
	}
	reversalID := auth.ReversalID
	if reversalID == 0 {
		// Write-ahead: pin the reversal's transaction ID before running
		// it, so any retry finds and re-drives this exact reversal. The
		// closure re-checks and adopts a pin that landed since the read
		// above — a pin, once written, is never replaced.
		fresh := l.txSeq.Add(1)
		err := l.stores[fs].Update(func(tx *db.Tx) error {
			rec, err := l.mgrs[fs].GetTransferTx(tx, txID)
			if err != nil {
				return err
			}
			if rec.Cancelled {
				return fmt.Errorf("%w: %d", accounts.ErrAlreadyCancelled, txID)
			}
			if rec.ReversalID != 0 {
				reversalID = rec.ReversalID
				return nil
			}
			reversalID = fresh
			rec.ReversalID = fresh
			return l.mgrs[fs].PutTransferTx(tx, rec)
		})
		if err != nil {
			return err
		}
	}
	// A previous attempt may have left the reversal in-doubt; resolve
	// it exactly as startup recovery would (idempotent, no-op when
	// there is nothing to resolve). The reversal's debit shard is ts
	// (the recipient pays back).
	if err := l.recoverOne(ts, gidFor(reversalID)); err != nil {
		return err
	}
	// A reversal writes its debit-shard transfer record at its commit
	// point and was just driven to completion if it had one, so a record
	// for reversalID there means the money already moved back — skip
	// straight to marking.
	if _, err := l.mgrs[ts].GetTransfer(reversalID); err != nil {
		if !errors.Is(err, accounts.ErrNoSuchTransfer) {
			return err
		}
		if _, err := l.crossTransfer(reversalID, tr.RecipientAccountID, tr.DrawerAccountID, tr.Amount, accounts.TransferOptions{}, true); err != nil {
			return err
		}
	}
	// Mark both copies; the authoritative drawer copy last, so a crash
	// mid-marking leaves a retry that re-enters above, finds the
	// completed reversal, and only finishes the marks.
	for _, idx := range []int{ts, fs} {
		mgr := l.mgrs[idx]
		err := l.stores[idx].Update(func(tx *db.Tx) error {
			rec, err := mgr.GetTransferTx(tx, txID)
			if err != nil {
				return err
			}
			rec.Cancelled = true
			return mgr.PutTransferTx(tx, rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// CloseAccount closes an account (§5.2.1), sweeping any balance to
// transferTo first — via the cross-shard protocol when the sweep
// crosses shards.
func (l *Ledger) CloseAccount(id, transferTo accounts.ID) error {
	owner := l.mgrFor(id)
	if transferTo == "" || l.ring.ShardFor(string(id)) == l.ring.ShardFor(string(transferTo)) {
		return owner.Admin().CloseAccount(id, transferTo)
	}
	a, err := owner.Details(id)
	if err != nil {
		return err
	}
	if !a.LockedBalance.IsZero() {
		return fmt.Errorf("%w: %s has %s locked", accounts.ErrNotEmpty, id, a.LockedBalance)
	}
	if a.AvailableBalance.IsPositive() {
		if _, err := l.crossTransfer(0, id, transferTo, a.AvailableBalance, accounts.TransferOptions{}, false); err != nil {
			return err
		}
	}
	return owner.Admin().CloseAccount(id, "")
}
