package micropay

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/settle"
	"gridbank/internal/shard"
	"gridbank/internal/strhash"
	"gridbank/internal/usage"
)

// redeemStripes is the shard count of the redeemer's per-serial lock.
const redeemStripes = 64

// Outcome reports one redemption or release.
type Outcome struct {
	// TxID is the TRANSFER transaction ID (0 when no money moved).
	TxID uint64
	// Paid is the amount moved to the payee (redeem) or unlocked back
	// to the drawer (release).
	Paid currency.Amount
	// Ticks is how many chain words this call newly paid for.
	Ticks int
	// Index is the chain's redeemed index after the call.
	Index int
	// State is the chain row state after the call.
	State string
	// CrossShard reports the pinned 2PC path was used.
	CrossShard bool
}

// Redeemer owns GridHash chain state transitions against the ledger.
// Every mutation of a chain row — issuance, redemption, release — goes
// through one Redeemer instance so the per-serial stripe lock serializes
// the synchronous bank path and the streaming pipeline against each
// other.
//
// The correctness core: for a same-shard redemption (payee on the
// drawer's shard) the locked-balance debit, the payee credit, both §5.1
// TRANSACTION rows, the TRANSFER record and the chain row advance
// commit in ONE store transaction. Either the money moved and the row
// says so, or neither happened. A cross-shard redemption pins its
// transaction ID (plus target index, word, payee and evidence) in the
// chain row write-ahead, drives the 2PC transfer under the pinned ID,
// and only then advances the row — a crash anywhere re-drives the same
// transfer and the monotone RedeemedIndex makes the replayed claim
// stale. The row is the exactly-once marker.
type Redeemer struct {
	led   usage.Ledger
	cross usage.CrossShardLedger // nil when the ledger cannot cross shards
	rs    rows
	now   func() time.Time
	locks [redeemStripes]sync.Mutex

	// Hook fires after every durable step with the boundary and serial;
	// returning an error abandons processing at that point (simulated
	// process death). Test instrumentation only; set before use.
	Hook func(b Boundary, serial string) error
}

// NewRedeemer builds a redeemer over the ledger, ensures the chain
// tables on every shard store, and finishes crash recovery bookkeeping:
// the transaction-ID allocator is reseeded above every pinned ID found
// in a head row or a combined row written before the split, so fresh
// transfers never collide with a pinned-but-unfinished redemption. Like
// the usage pipeline, this must run before the ledger serves traffic.
func NewRedeemer(led usage.Ledger, now func() time.Time) (*Redeemer, error) {
	if led == nil {
		return nil, errors.New("micropay: redeemer requires a ledger")
	}
	if now == nil {
		now = time.Now
	}
	cross, _ := led.(usage.CrossShardLedger)
	if led.Shards() > 1 && cross == nil {
		return nil, errors.New("micropay: a multi-shard ledger must implement CrossShardLedger")
	}
	r := &Redeemer{led: led, cross: cross, rs: rows{led: led}, now: now}
	var maxPin uint64
	for i := 0; i < led.Shards(); i++ {
		st := led.ShardStore(i)
		for _, table := range []string{TableChains, TableChainHeads} {
			if err := st.EnsureTable(table); err != nil {
				return nil, err
			}
			var scanErr error
			err := st.Scan(table, func(key string, value []byte) bool {
				row := &ChainRow{}
				if table == TableChains {
					row, scanErr = decodeChainRow(key, value)
				} else {
					scanErr = row.readHead(key, value)
				}
				if scanErr != nil {
					return false
				}
				maxPin = max(maxPin, row.PinTxID)
				return true
			})
			if err == nil {
				err = scanErr
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if maxPin > 0 {
		if cross == nil {
			return nil, fmt.Errorf("micropay: chain rows hold pinned transaction IDs (max %d) but the ledger cannot cross shards", maxPin)
		}
		cross.SeedTxIDsAbove(maxPin)
	}
	return r, nil
}

// Ledger returns the settlement target.
func (r *Redeemer) Ledger() usage.Ledger { return r.led }

func (r *Redeemer) lock(serial string) *sync.Mutex {
	return &r.locks[strhash.FNV32a(serial)%redeemStripes]
}

func (r *Redeemer) hook(b Boundary, serial string) error {
	if r.Hook == nil {
		return nil
	}
	return r.Hook(b, serial)
}

// Issue registers a freshly issued chain on the drawer's home shard and
// locks its full value there (§3.4), in one transaction: a chain
// that fails to commit holds no funds.
func (r *Redeemer) Issue(row *ChainRow, lock currency.Amount) error {
	home := r.rs.home(row)
	mgr := r.led.ShardManager(home)
	raw, err := row.encode()
	if err != nil {
		return err
	}
	return r.led.ShardStore(home).Update(func(tx *db.Tx) error {
		if err := mgr.LockTx(tx, row.Commitment.DrawerAccountID, lock); err != nil {
			return err
		}
		return tx.Insert(TableChains, row.Commitment.Serial, raw)
	})
}

// Put writes a chain row to the drawer's home shard (tests and
// experiments that lock funds themselves).
func (r *Redeemer) Put(row *ChainRow) error {
	mu := r.lock(row.Commitment.Serial)
	mu.Lock()
	defer mu.Unlock()
	return r.rs.put(row)
}

// Get returns the chain row (read-only; an unfinished pin is left
// untouched — the next mutation finishes it).
func (r *Redeemer) Get(serial string) (*ChainRow, error) {
	row, _, err := r.rs.get(serial)
	return row, err
}

// Delete removes a chain row wherever it lives (admin/test plumbing).
func (r *Redeemer) Delete(serial string) error {
	mu := r.lock(serial)
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < r.led.Shards(); i++ {
		err := r.led.ShardStore(i).Update(func(tx *db.Tx) error { return deleteChain(tx, serial) })
		if err != nil {
			return err
		}
	}
	return nil
}

// Redeem advances the chain to target, paying the payee
// (target − RedeemedIndex) × PerWord out of the drawer's locked funds.
// word must be the chain word at target; it is verified incrementally
// against the row's anchor in O(target − RedeemedIndex) hashes. rurEv
// is stored in the TRANSFER record as §5.1 evidence.
//
// A target at or below the redeemed position returns ErrStaleIndex even
// on a finished chain — a replayed claim is a duplicate, never an
// error about chain state — so crash-recovery resubmission is
// idempotent.
func (r *Redeemer) Redeem(serial string, payee accounts.ID, target int, word, rurEv []byte) (*Outcome, error) {
	mu := r.lock(serial)
	mu.Lock()
	defer mu.Unlock()

	row, at, err := r.rs.get(serial)
	if err != nil {
		return nil, err
	}
	if row.PinTxID != 0 {
		if row, at, err = r.finishPin(row, at); err != nil {
			return nil, err
		}
	}
	if target <= row.RedeemedIndex {
		return nil, fmt.Errorf("%w: claim %d, already redeemed to %d", ErrStaleIndex, target, row.RedeemedIndex)
	}
	if row.State != StateOutstanding {
		return nil, fmt.Errorf("%w: chain %s is %s", ErrChainState, serial, row.State)
	}
	if err := verifyWordAfter(&row.Commitment, row.RedeemedIndex, row.RedeemedWord, target, word); err != nil {
		return nil, err
	}
	delta, err := row.Commitment.PerWord.MulInt(int64(target - row.RedeemedIndex))
	if err != nil {
		return nil, err
	}
	home := r.rs.home(row)
	if r.led.ShardFor(payee) == home {
		return r.redeemSame(row, at, home, payee, target, word, rurEv, delta)
	}
	return r.redeemCross(row, at, home, payee, target, word, rurEv, delta)
}

// redeemSame applies a same-shard redemption in one store transaction.
// Caller holds the serial's stripe lock.
func (r *Redeemer) redeemSame(row *ChainRow, at, home int, payee accounts.ID, target int, word, rurEv []byte, delta currency.Amount) (*Outcome, error) {
	serial := row.Commitment.Serial
	drawer := row.Commitment.DrawerAccountID
	if drawer == payee {
		return nil, fmt.Errorf("%w: chain %s pays its own drawer", accounts.ErrBadAmount, serial)
	}
	mgr := r.led.ShardManager(home)
	st := r.led.ShardStore(home)
	now := r.now()
	ticks := 0
	var txID uint64
	var out ChainRow
	err := st.Update(func(tx *db.Tx) error {
		// The closure may rerun on conflict: recompute everything from
		// the transaction's view. The row itself is re-read so the
		// advance builds on committed state; a miss means the row still
		// lives at its legacy location and migrates home right here.
		cur, err := readChainTx(tx, row)
		if err != nil {
			return err
		}
		if target <= cur.RedeemedIndex {
			return fmt.Errorf("%w: claim %d, already redeemed to %d", ErrStaleIndex, target, cur.RedeemedIndex)
		}
		if cur.State != StateOutstanding {
			return fmt.Errorf("%w: chain %s is %s", ErrChainState, serial, cur.State)
		}
		ticks = target - cur.RedeemedIndex

		from, err := accounts.GetAccountTx(tx, drawer)
		if errors.Is(err, db.ErrNoRecord) {
			return fmt.Errorf("%w: drawer %s", accounts.ErrNotFound, drawer)
		} else if err != nil {
			return err
		}
		to, err := accounts.GetAccountTx(tx, payee)
		if errors.Is(err, db.ErrNoRecord) {
			return fmt.Errorf("%w: payee %s", accounts.ErrNotFound, payee)
		} else if err != nil {
			return err
		}
		if to.Closed {
			return fmt.Errorf("%w: payee %s", accounts.ErrClosed, payee)
		}
		if to.Currency != from.Currency {
			return fmt.Errorf("%w: drawer %s, payee %s", accounts.ErrCurrencyMismatch, from.Currency, to.Currency)
		}
		if from.LockedBalance.Cmp(delta) < 0 {
			return fmt.Errorf("%w: locked %s < %s", accounts.ErrInsufficientLock, from.LockedBalance, delta)
		}
		from.LockedBalance = from.LockedBalance.MustSub(delta)
		to.AvailableBalance = to.AvailableBalance.MustAdd(delta)
		if err := accounts.PutAccountTx(tx, from); err != nil {
			return err
		}
		if err := accounts.PutAccountTx(tx, to); err != nil {
			return err
		}
		neg, err := delta.Neg()
		if err != nil {
			return err
		}
		txID, err = mgr.AppendTransactionTx(tx, &accounts.Transaction{
			AccountID: drawer, Type: accounts.TxTransfer, Date: now, Amount: neg,
		})
		if err != nil {
			return err
		}
		if _, err := mgr.AppendTransactionTx(tx, &accounts.Transaction{
			TransactionID: txID, AccountID: payee, Type: accounts.TxTransfer, Date: now, Amount: delta,
		}); err != nil {
			return err
		}
		if err := mgr.InsertTransferTx(tx, &accounts.Transfer{
			TransactionID:       txID,
			Date:                now,
			DrawerAccountID:     drawer,
			Amount:              delta,
			RecipientAccountID:  payee,
			ResourceUsageRecord: rurEv,
		}); err != nil {
			return err
		}
		out = *cur
		out.RedeemedIndex = target
		out.RedeemedWord = word
		if target == out.Commitment.Length {
			out.State = StateRedeemed
		}
		return putHead(tx, &out)
	})
	if err != nil {
		return nil, err
	}
	if err := r.hook(BoundarySettled, serial); err != nil {
		return nil, err
	}
	r.rs.dropStray(serial, at, home)
	return &Outcome{TxID: txID, Paid: delta, Ticks: ticks, Index: target, State: out.State}, nil
}

// redeemCross runs a cross-shard redemption: pin the intent in the
// chain row, drive the pinned 2PC transfer, advance the row. Caller
// holds the serial's stripe lock.
func (r *Redeemer) redeemCross(row *ChainRow, at, home int, payee accounts.ID, target int, word, rurEv []byte, delta currency.Amount) (*Outcome, error) {
	serial := row.Commitment.Serial
	pinned := *row
	pinned.PinTxID = r.cross.AllocTxID()
	pinned.PinIndex = target
	pinned.PinWord = word
	pinned.PinPayee = payee
	pinned.PinRUR = rurEv
	if err := r.rs.putHead(&pinned); err != nil {
		return nil, err
	}
	r.rs.dropStray(serial, at, home)
	if err := r.hook(BoundaryPinned, serial); err != nil {
		return nil, err
	}
	adv, ticks, err := r.drivePin(&pinned, delta)
	if err != nil {
		return nil, err
	}
	return &Outcome{TxID: pinned.PinTxID, Paid: delta, Ticks: ticks, Index: adv.RedeemedIndex, State: adv.State, CrossShard: true}, nil
}

// finishPin completes the pinned redemption a crash (or abandon) left in
// a chain row, returning the row as it stands afterwards. A pin whose
// transfer can never succeed is cleared without advancing — the money
// provably did not move. Caller holds the serial's stripe lock.
func (r *Redeemer) finishPin(row *ChainRow, at int) (*ChainRow, int, error) {
	home := r.rs.home(row)
	delta, err := row.Commitment.PerWord.MulInt(int64(row.PinIndex - row.RedeemedIndex))
	if err != nil {
		return nil, 0, err
	}
	if row.PinIndex <= row.RedeemedIndex || !delta.IsPositive() {
		// Malformed pin (cannot happen through Redeem): clear it.
		cleared, err := r.unpin(row)
		return cleared, home, err
	}
	adv, _, err := r.drivePin(row, delta)
	if err != nil {
		// A ledger verdict proves the pinned transfer never ran and never
		// will: the pin can be dropped. In-doubt (past the commit point
		// only storage fails, never a verdict), fail-stopped storage and
		// transient faults keep it until resolved.
		if settle.Terminal(err) {
			cleared, uerr := r.unpin(row)
			if uerr != nil {
				return nil, 0, uerr
			}
			return cleared, home, nil
		}
		return nil, 0, err
	}
	r.rs.dropStray(row.Commitment.Serial, at, home)
	return adv, home, nil
}

// unpin clears a dead pin without advancing the row.
func (r *Redeemer) unpin(row *ChainRow) (*ChainRow, error) {
	cleared := *row
	cleared.PinTxID = 0
	cleared.PinIndex = 0
	cleared.PinWord = nil
	cleared.PinPayee = ""
	cleared.PinRUR = nil
	if err := r.rs.putHead(&cleared); err != nil {
		return nil, err
	}
	return &cleared, nil
}

// drivePin resolves and (re-)drives the pinned transfer, then advances
// the chain row and clears the pin. Idempotent: if the transfer already
// landed it is not re-run; if the row is already advanced the advance
// transaction is a no-op. Returns the advanced row and how many ticks
// the advance covered.
func (r *Redeemer) drivePin(row *ChainRow, delta currency.Amount) (*ChainRow, int, error) {
	serial := row.Commitment.Serial
	home := r.rs.home(row)
	if err := r.cross.ResolveInDoubt(home, row.PinTxID); err != nil {
		return nil, 0, fmt.Errorf("micropay: resolving pinned transfer %d: %w", row.PinTxID, err)
	}
	if _, err := r.cross.GetTransfer(row.PinTxID); err != nil {
		if !errors.Is(err, accounts.ErrNoSuchTransfer) {
			return nil, 0, err
		}
		if _, terr := r.cross.TransferWithID(row.PinTxID, row.Commitment.DrawerAccountID, row.PinPayee, delta,
			accounts.TransferOptions{FromLocked: true, RUR: row.PinRUR}); terr != nil {
			if errors.Is(terr, shard.ErrInDoubt) {
				return nil, 0, fmt.Errorf("micropay: chain %s redemption in doubt: %w", serial, terr)
			}
			return nil, 0, terr
		}
	}
	if err := r.hook(BoundarySettled, serial); err != nil {
		return nil, 0, err
	}

	// Advance and unpin in one transaction on the home store. The
	// transfer is durable; from here on a crash replays into the
	// idempotent branch above (GetTransfer finds the pin) and lands
	// back here.
	ticks := 0
	var out ChainRow
	err := r.led.ShardStore(home).Update(func(tx *db.Tx) error {
		cur, err := readChainTx(tx, row)
		if err != nil {
			return err
		}
		out = *cur
		ticks = 0
		if cur.PinTxID == row.PinTxID { // not yet advanced
			ticks = cur.PinIndex - cur.RedeemedIndex
			out.RedeemedIndex = cur.PinIndex
			out.RedeemedWord = cur.PinWord
			out.PinTxID = 0
			out.PinIndex = 0
			out.PinWord = nil
			out.PinPayee = ""
			out.PinRUR = nil
			if out.RedeemedIndex == out.Commitment.Length {
				out.State = StateRedeemed
			}
		}
		return putHead(tx, &out)
	})
	if err != nil {
		return nil, 0, err
	}
	if err := r.hook(BoundaryAdvanced, serial); err != nil {
		return nil, 0, err
	}
	return &out, ticks, nil
}

// Release flips an outstanding chain to released and unlocks the
// unredeemed remainder back to the drawer, in one transaction on the
// drawer's shard. gate runs under the serial's stripe lock with the
// current row (pins already finished) — the bank's caller/expiry checks
// go there, so an in-flight redemption and a release can never
// interleave between check and act.
func (r *Redeemer) Release(serial string, gate func(*ChainRow) error) (*Outcome, error) {
	mu := r.lock(serial)
	mu.Lock()
	defer mu.Unlock()

	row, at, err := r.rs.get(serial)
	if err != nil {
		return nil, err
	}
	if row.PinTxID != 0 {
		if row, at, err = r.finishPin(row, at); err != nil {
			return nil, err
		}
	}
	if gate != nil {
		if err := gate(row); err != nil {
			return nil, err
		}
	}
	if row.State != StateOutstanding {
		return nil, fmt.Errorf("%w: chain %s is %s", ErrChainState, serial, row.State)
	}
	remainder, err := row.Commitment.PerWord.MulInt(int64(row.Commitment.Length - row.RedeemedIndex))
	if err != nil {
		return nil, err
	}
	home := r.rs.home(row)
	drawer := row.Commitment.DrawerAccountID
	mgr := r.led.ShardManager(home)
	now := r.now()
	var out ChainRow
	err = r.led.ShardStore(home).Update(func(tx *db.Tx) error {
		cur, err := readChainTx(tx, row)
		if err != nil {
			return err
		}
		if cur.State != StateOutstanding {
			return fmt.Errorf("%w: chain %s is %s", ErrChainState, serial, cur.State)
		}
		if remainder.IsPositive() {
			a, err := accounts.GetAccountTx(tx, drawer)
			if errors.Is(err, db.ErrNoRecord) {
				return fmt.Errorf("%w: drawer %s", accounts.ErrNotFound, drawer)
			} else if err != nil {
				return err
			}
			if a.LockedBalance.Cmp(remainder) < 0 {
				return fmt.Errorf("%w: locked %s < %s", accounts.ErrInsufficientLock, a.LockedBalance, remainder)
			}
			a.LockedBalance = a.LockedBalance.MustSub(remainder)
			a.AvailableBalance = a.AvailableBalance.MustAdd(remainder)
			if err := accounts.PutAccountTx(tx, a); err != nil {
				return err
			}
			if _, err := mgr.AppendTransactionTx(tx, &accounts.Transaction{
				AccountID: drawer, Type: accounts.TxUnlock, Date: now, Amount: remainder,
			}); err != nil {
				return err
			}
		}
		out = *cur
		out.State = StateReleased
		return putHead(tx, &out)
	})
	if err != nil {
		return nil, err
	}
	if err := r.hook(BoundarySettled, serial); err != nil {
		return nil, err
	}
	r.rs.dropStray(serial, at, home)
	return &Outcome{Paid: remainder, Index: out.RedeemedIndex, State: out.State}, nil
}
