package accounts

import (
	"fmt"

	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// Transaction-scoped ledger primitives for the sharding layer.
//
// A cross-shard transfer cannot go through Manager.Transfer — each of
// its sides lives on a different store — so the cross-shard coordinator
// in internal/shard composes its own db transactions: the commit point
// on the debit shard, the credit on the credit shard, the outbox-row
// clean-up on the debit shard. Each of those steps must mutate
// an ACCOUNT row, append the proper §5.1 TRANSACTION/TRANSFER records
// and write the coordinator's own bookkeeping rows atomically, in one
// db.Tx per step. These helpers expose exactly the row-level operations
// that requires, nothing more; every invariant beyond single-row
// encoding (conservation, non-negative locks) remains the caller's to
// uphold across the composed transaction. LockTx, UnlockTx and DebitTx
// are the exception: each is a whole ledger step with its checks, so
// an instrument registry (or the cross-shard coordinator) can commit it
// together with rows of its own.

// LockTx is the §3.4 fund lock inside tx: amount moves from the
// available to the locked balance, with a Lock TRANSACTION row.
func (m *Manager) LockTx(tx *db.Tx, id ID, amount currency.Amount) error {
	if !amount.IsPositive() {
		return ErrBadAmount
	}
	a, err := getAccount(tx, id)
	if err != nil {
		return err
	}
	if a.Closed {
		return fmt.Errorf("%w: %s", ErrClosed, id)
	}
	if a.Spendable().Cmp(amount) < 0 {
		return fmt.Errorf("%w: spendable %s < %s", ErrInsufficient, a.Spendable(), amount)
	}
	a.AvailableBalance = a.AvailableBalance.MustSub(amount)
	a.LockedBalance = a.LockedBalance.MustAdd(amount)
	if err := putAccount(tx, a); err != nil {
		return err
	}
	_, err = m.appendTransaction(tx, &Transaction{AccountID: id, Type: TxLock, Date: m.now(), Amount: amount})
	return err
}

// UnlockTx releases locked funds back to the available balance inside
// tx, with an Unlock TRANSACTION row.
func (m *Manager) UnlockTx(tx *db.Tx, id ID, amount currency.Amount) error {
	if !amount.IsPositive() {
		return ErrBadAmount
	}
	a, err := getAccount(tx, id)
	if err != nil {
		return err
	}
	if err := unlock(a, amount); err != nil {
		return err
	}
	if err := putAccount(tx, a); err != nil {
		return err
	}
	_, err = m.appendTransaction(tx, &Transaction{AccountID: id, Type: TxUnlock, Date: m.now(), Amount: amount})
	return err
}

func unlock(a *Account, amount currency.Amount) error {
	if a.LockedBalance.Cmp(amount) < 0 {
		return fmt.Errorf("%w: locked %s < %s", ErrInsufficientLock, a.LockedBalance, amount)
	}
	a.LockedBalance = a.LockedBalance.MustSub(amount)
	a.AvailableBalance = a.AvailableBalance.MustAdd(amount)
	return nil
}

// DebitTx applies the drawer's half of transfer rec inside tx, on the
// drawer's store: opts.InTx, the balance (or lock) debit, the release
// of opts.ReleaseLocked, the drawer-side TRANSACTION row(s), the
// TRANSFER record and the opts.DedupKey marker. rec.TransactionID is
// allocated when zero. recipientCur is the recipient's currency, which
// the drawer's must match. Crediting the recipient — in this tx when it
// shares the store, in a later one on its own shard when it does not —
// is the caller's half; so is replaying a spent DedupKey.
func (m *Manager) DebitTx(tx *db.Tx, rec *Transfer, recipientCur currency.Code, opts TransferOptions) error {
	if opts.InTx != nil {
		if err := opts.InTx(tx); err != nil {
			return err
		}
	}
	from, err := getAccount(tx, rec.DrawerAccountID)
	if err != nil {
		return err
	}
	if from.Closed {
		return fmt.Errorf("%w: %s", ErrClosed, rec.DrawerAccountID)
	}
	if from.Currency != recipientCur {
		return fmt.Errorf("%w: %s is %s, %s is %s", ErrCurrencyMismatch,
			rec.DrawerAccountID, from.Currency, rec.RecipientAccountID, recipientCur)
	}
	if opts.FromLocked {
		if from.LockedBalance.Cmp(rec.Amount) < 0 {
			return fmt.Errorf("%w: locked %s < %s", ErrInsufficientLock, from.LockedBalance, rec.Amount)
		}
		from.LockedBalance = from.LockedBalance.MustSub(rec.Amount)
	} else {
		if from.Spendable().Cmp(rec.Amount) < 0 {
			return fmt.Errorf("%w: spendable %s < %s", ErrInsufficient, from.Spendable(), rec.Amount)
		}
		from.AvailableBalance = from.AvailableBalance.MustSub(rec.Amount)
	}
	if opts.ReleaseLocked.IsPositive() {
		if err := unlock(from, opts.ReleaseLocked); err != nil {
			return err
		}
	}
	if err := putAccount(tx, from); err != nil {
		return err
	}
	neg, err := rec.Amount.Neg()
	if err != nil {
		return err
	}
	rec.TransactionID, err = m.appendTransaction(tx, &Transaction{
		TransactionID: rec.TransactionID, AccountID: rec.DrawerAccountID, Type: TxTransfer, Date: rec.Date, Amount: neg,
	})
	if err != nil {
		return err
	}
	if opts.ReleaseLocked.IsPositive() {
		if _, err := m.appendTransaction(tx, &Transaction{
			AccountID: rec.DrawerAccountID, Type: TxUnlock, Date: rec.Date, Amount: opts.ReleaseLocked,
		}); err != nil {
			return err
		}
	}
	if opts.DedupKey != "" {
		// Same transaction as the transfer rows: the key is spent
		// exactly when the money moves, never before or after.
		if err := m.PutDedupTx(tx, &DedupMarker{Key: opts.DedupKey, TxID: rec.TransactionID, Date: rec.Date}); err != nil {
			return err
		}
	}
	return m.InsertTransferTx(tx, rec)
}

// GetAccountTx reads and decodes an ACCOUNT row inside tx.
func GetAccountTx(tx *db.Tx, id ID) (*Account, error) {
	return getAccount(tx, id)
}

// PutAccountTx encodes and writes an ACCOUNT row inside tx.
func PutAccountTx(tx *db.Tx, a *Account) error {
	return putAccount(tx, a)
}

// AppendTransactionTx appends a TRANSACTION row inside tx, allocating
// the ID from the manager's allocator when t.TransactionID is zero, and
// returns the ID used.
func (m *Manager) AppendTransactionTx(tx *db.Tx, t *Transaction) (uint64, error) {
	return m.appendTransaction(tx, t)
}

// InsertTransferTx inserts a TRANSFER record inside tx under its
// canonical key. rec.TransactionID must already be set.
func (m *Manager) InsertTransferTx(tx *db.Tx, rec *Transfer) error {
	raw, err := encodeTransfer(rec)
	if err != nil {
		return err
	}
	return tx.Insert(tableTransfers, transferKey(rec.TransactionID), raw)
}

// PutTransferTx overwrites a TRANSFER record inside tx (cancellation
// marking).
func (m *Manager) PutTransferTx(tx *db.Tx, rec *Transfer) error {
	raw, err := encodeTransfer(rec)
	if err != nil {
		return err
	}
	return tx.Put(tableTransfers, transferKey(rec.TransactionID), raw)
}

// GetTransferTx reads a TRANSFER record inside tx.
func (m *Manager) GetTransferTx(tx *db.Tx, txID uint64) (*Transfer, error) {
	key := transferKey(txID)
	raw, err := tx.Get(tableTransfers, key)
	if err != nil {
		return nil, err
	}
	return decodeTransfer(key, raw)
}

// MaxReversalID scans the TRANSFER records for the highest pinned
// ReversalID. A reversal ID is allocated and durably pinned before its
// compensating transfer writes any row of its own, so after a crash it
// may exist nowhere but inside a transfer record's value — the sharded
// ledger folds this into its transaction-ID seeding so a fresh transfer
// can never collide with a pending cancellation. Only rows that may
// pin one are decoded.
func (m *Manager) MaxReversalID() (uint64, error) {
	var maxID uint64
	var scanErr error
	err := m.store.Scan(tableTransfers, func(key string, value []byte) bool {
		if !pinsReversal(value) {
			return true
		}
		tr, err := decodeTransfer(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		if tr.ReversalID > maxID {
			maxID = tr.ReversalID
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return maxID, scanErr
}
