package accounts

import (
	"errors"
	"fmt"

	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// Admin is the GB Admin module (§3.2, §5.2.1): privileged operations
// performed by GridBank administrators "who are responsible for
// transferring real money to and from clients". The server layer gates
// these behind the administrator table; Admin itself only implements the
// ledger semantics.
type Admin struct {
	m *Manager
}

// Admin returns the privileged operations facade over the same ledger.
func (m *Manager) Admin() *Admin { return &Admin{m: m} }

// Deposit credits an account, recording a Deposit transaction (§5.2.1:
// "administrator receives funds via existing credit/debit/smart card
// payment systems, and deposits same amount into GridBank account").
func (ad *Admin) Deposit(id ID, amount currency.Amount) error {
	if !amount.IsPositive() {
		return ErrBadAmount
	}
	return ad.m.store.Update(func(tx *db.Tx) error {
		a, err := getAccount(tx, id)
		if err != nil {
			return err
		}
		if a.Closed {
			return fmt.Errorf("%w: %s", ErrClosed, id)
		}
		sum, err := a.AvailableBalance.Add(amount)
		if err != nil {
			return err
		}
		a.AvailableBalance = sum
		if err := putAccount(tx, a); err != nil {
			return err
		}
		_, err = ad.m.appendTransaction(tx, &Transaction{AccountID: id, Type: TxDeposit, Date: ad.m.now(), Amount: amount})
		return err
	})
}

// Withdraw debits the available balance for transfer to a real bank
// account. Withdrawals cannot dip into credit: credit is a spending
// facility, not withdrawable money.
func (ad *Admin) Withdraw(id ID, amount currency.Amount) error {
	if !amount.IsPositive() {
		return ErrBadAmount
	}
	return ad.m.store.Update(func(tx *db.Tx) error {
		a, err := getAccount(tx, id)
		if err != nil {
			return err
		}
		if a.Closed {
			return fmt.Errorf("%w: %s", ErrClosed, id)
		}
		if a.AvailableBalance.Cmp(amount) < 0 {
			return fmt.Errorf("%w: available %s < %s", ErrInsufficient, a.AvailableBalance, amount)
		}
		a.AvailableBalance = a.AvailableBalance.MustSub(amount)
		if err := putAccount(tx, a); err != nil {
			return err
		}
		neg, err := amount.Neg()
		if err != nil {
			return err
		}
		_, err = ad.m.appendTransaction(tx, &Transaction{AccountID: id, Type: TxWithdrawal, Date: ad.m.now(), Amount: neg})
		return err
	})
}

// ChangeCreditLimit sets the account's credit limit (§5.2.1). A negative
// limit is rejected; lowering the limit below the current overdraft is
// allowed (the account is simply over-limit until repaid, as with real
// banks).
func (ad *Admin) ChangeCreditLimit(id ID, limit currency.Amount) error {
	if limit.IsNegative() {
		return fmt.Errorf("accounts: credit limit cannot be negative")
	}
	return ad.m.store.Update(func(tx *db.Tx) error {
		a, err := getAccount(tx, id)
		if err != nil {
			return err
		}
		if a.Closed {
			return fmt.Errorf("%w: %s", ErrClosed, id)
		}
		a.CreditLimit = limit
		return putAccount(tx, a)
	})
}

// CancelTransfer reverses a committed transfer (§5.2.1 Cancel Transfer):
// dispute resolution when the drawer contests a charge. The reversal is a
// compensating transfer (recipient pays the drawer back) rather than a
// deletion, preserving the audit trail; the recipient may go into
// overdraft up to its credit limit — beyond that cancellation fails and
// the dispute escalates to the administrators.
func (ad *Admin) CancelTransfer(txID uint64) error {
	return ad.m.store.Update(func(tx *db.Tx) error {
		tr, err := ad.m.GetTransferTx(tx, txID)
		if errors.Is(err, db.ErrNoRecord) {
			return fmt.Errorf("%w: %d", ErrNoSuchTransfer, txID)
		}
		if err != nil {
			return err
		}
		if tr.Cancelled {
			return fmt.Errorf("%w: %d", ErrAlreadyCancelled, txID)
		}
		drawer, err := getAccount(tx, tr.DrawerAccountID)
		if err != nil {
			return err
		}
		recipient, err := getAccount(tx, tr.RecipientAccountID)
		if err != nil {
			return err
		}
		if recipient.Spendable().Cmp(tr.Amount) < 0 {
			return fmt.Errorf("%w: recipient spendable %s < %s", ErrInsufficient, recipient.Spendable(), tr.Amount)
		}
		recipient.AvailableBalance = recipient.AvailableBalance.MustSub(tr.Amount)
		drawer.AvailableBalance = drawer.AvailableBalance.MustAdd(tr.Amount)
		tr.Cancelled = true
		if err := putAccount(tx, drawer); err != nil {
			return err
		}
		if err := putAccount(tx, recipient); err != nil {
			return err
		}
		if err := ad.m.PutTransferTx(tx, tr); err != nil {
			return err
		}
		now := ad.m.now()
		neg, err := tr.Amount.Neg()
		if err != nil {
			return err
		}
		reverseID, err := ad.m.appendTransaction(tx, &Transaction{AccountID: tr.RecipientAccountID, Type: TxTransfer, Date: now, Amount: neg})
		if err != nil {
			return err
		}
		if _, err := ad.m.appendTransaction(tx, &Transaction{TransactionID: reverseID, AccountID: tr.DrawerAccountID, Type: TxTransfer, Date: now, Amount: tr.Amount}); err != nil {
			return err
		}
		reversal := &Transfer{
			TransactionID:      reverseID,
			Date:               now,
			DrawerAccountID:    tr.RecipientAccountID,
			Amount:             tr.Amount,
			RecipientAccountID: tr.DrawerAccountID,
			Cancelled:          true, // marks the pair as a reversal, not a fresh charge
		}
		return ad.m.InsertTransferTx(tx, reversal)
	})
}

// CloseAccount closes an account after transferring any outstanding
// balance to another account (§5.2.1: "Close account and get outstanding
// balance transferred to another GridBank account"). Locked funds must be
// released or redeemed first — a pending payment guarantee cannot be
// abandoned. If the account is overdrawn the debt must be settled first.
// transferTo may be empty only when the balance is exactly zero.
func (ad *Admin) CloseAccount(id, transferTo ID) error {
	return ad.m.store.Update(func(tx *db.Tx) error {
		a, err := getAccount(tx, id)
		if err != nil {
			return err
		}
		if a.Closed {
			return fmt.Errorf("%w: %s", ErrClosed, id)
		}
		if !a.LockedBalance.IsZero() {
			return fmt.Errorf("%w: %s has %s locked", ErrNotEmpty, id, a.LockedBalance)
		}
		if a.AvailableBalance.IsNegative() {
			return fmt.Errorf("%w: %s owes %s", ErrNotEmpty, id, a.AvailableBalance.Abs())
		}
		if !a.AvailableBalance.IsZero() {
			if transferTo == "" {
				return fmt.Errorf("%w: %s holds %s and no transfer target given", ErrNotEmpty, id, a.AvailableBalance)
			}
			dest, err := getAccount(tx, transferTo)
			if err != nil {
				return err
			}
			if dest.Closed {
				return fmt.Errorf("%w: %s", ErrClosed, transferTo)
			}
			if dest.Currency != a.Currency {
				return fmt.Errorf("%w: %s vs %s", ErrCurrencyMismatch, a.Currency, dest.Currency)
			}
			amount := a.AvailableBalance
			dest.AvailableBalance = dest.AvailableBalance.MustAdd(amount)
			a.AvailableBalance = 0
			if err := putAccount(tx, dest); err != nil {
				return err
			}
			now := ad.m.now()
			neg, err := amount.Neg()
			if err != nil {
				return err
			}
			txID, err := ad.m.appendTransaction(tx, &Transaction{AccountID: id, Type: TxTransfer, Date: now, Amount: neg})
			if err != nil {
				return err
			}
			if _, err := ad.m.appendTransaction(tx, &Transaction{TransactionID: txID, AccountID: transferTo, Type: TxTransfer, Date: now, Amount: amount}); err != nil {
				return err
			}
			rec := &Transfer{TransactionID: txID, Date: now, DrawerAccountID: id, Amount: amount, RecipientAccountID: transferTo}
			if err := ad.m.InsertTransferTx(tx, rec); err != nil {
				return err
			}
		}
		a.Closed = true
		return putAccount(tx, a)
	})
}
