// Package accounts implements the Accounts Layer of the GridBank server
// (§3.2): the GB Accounts core module (account creation, details,
// statements, funds transfer, locking and transfer-from-locked) and the GB
// Admin module (deposit, withdrawal, credit limits, cancellation, account
// closure). It owns the §5.1 database schema — ACCOUNT, TRANSACTION and
// TRANSFER records — stored in the embedded db substrate as bin1 row
// values (row.go); the JSON tags on the record types are the §5.2
// response format and the legacy row format, which still decodes.
//
// The module is deliberately independent of payment schemes, wire
// protocols and the security model, exactly as the paper specifies: "This
// module is independent of payment scheme, protocols used and underlying
// security model."
package accounts

import (
	"errors"
	"fmt"
	"regexp"
	"time"

	"gridbank/internal/currency"
)

// Errors returned by account operations.
var (
	ErrNotFound          = errors.New("accounts: account not found")
	ErrDuplicateIdentity = errors.New("accounts: certificate name already has an account")
	ErrInsufficient      = errors.New("accounts: insufficient funds")
	ErrInsufficientLock  = errors.New("accounts: insufficient locked funds")
	ErrCurrencyMismatch  = errors.New("accounts: currency mismatch")
	ErrBadAmount         = errors.New("accounts: amount must be positive")
	ErrClosed            = errors.New("accounts: account is closed")
	ErrNotEmpty          = errors.New("accounts: account still holds funds")
	ErrBadID             = errors.New("accounts: malformed account ID")
	ErrNoSuchTransfer    = errors.New("accounts: no such transfer")
	ErrAlreadyCancelled  = errors.New("accounts: transfer already cancelled")
)

// ID is an account identifier in the paper's format
// bank-branch-account, e.g. "01-0001-00000001" (§5.1: "imitates real
// world account numbers").
type ID string

var idPattern = regexp.MustCompile(`^[0-9]{2}-[0-9]{4}-[0-9]{8}$`)

// Valid reports whether the ID matches the paper's format.
func (id ID) Valid() bool { return idPattern.MatchString(string(id)) }

// MakeID formats an account ID from its components.
func MakeID(bank, branch, account uint64) ID {
	return ID(fmt.Sprintf("%02d-%04d-%08d", bank%100, branch%10000, account%100000000))
}

// Bank returns the two-digit bank number ("another payment system can use
// a different bank number", §6).
func (id ID) Bank() string {
	if !id.Valid() {
		return ""
	}
	return string(id[:2])
}

// Branch returns the four-digit branch number (one per VO GridBank
// server, §6).
func (id ID) Branch() string {
	if !id.Valid() {
		return ""
	}
	return string(id[3:7])
}

// Account is the §5.1 ACCOUNT record.
type Account struct {
	AccountID        ID              `json:"account_id"`
	CertificateName  string          `json:"certificate_name"`  // X509v3 subject: globally unique client ID
	OrganizationName string          `json:"organization_name"` // optional
	AvailableBalance currency.Amount `json:"available_balance"`
	LockedBalance    currency.Amount `json:"locked_balance"` // payment guarantees for started jobs (§3.4)
	Currency         currency.Code   `json:"currency"`
	CreditLimit      currency.Amount `json:"credit_limit"` // default 0
	Closed           bool            `json:"closed,omitempty"`
	CreatedAt        time.Time       `json:"created_at"`
}

// Spendable returns how much the account may spend right now:
// available balance plus remaining credit.
func (a *Account) Spendable() currency.Amount {
	return a.AvailableBalance.MustAdd(a.CreditLimit)
}

// TxType is the §5.1 TRANSACTION record type column.
type TxType string

// Transaction types. The paper enumerates Deposit, Withdrawal and
// Transfer; Lock/Unlock rows additionally journal the §3.4 fund-locking
// guarantee so statements show reserved funds (they move money between the
// available and locked balances of the *same* account, never across
// accounts).
const (
	TxDeposit    TxType = "Deposit"
	TxWithdrawal TxType = "Withdrawal"
	TxTransfer   TxType = "Transfer"
	TxLock       TxType = "Lock"
	TxUnlock     TxType = "Unlock"
)

// Transaction is the §5.1 TRANSACTION record. The paper's schema implies
// the owning account via the statement join; the AccountID column makes
// that join explicit.
type Transaction struct {
	TransactionID uint64    `json:"transaction_id"`
	AccountID     ID        `json:"account_id"`
	Type          TxType    `json:"type"`
	Date          time.Time `json:"date"`
	// Amount is negative for withdrawals and outgoing transfers (§5.1:
	// "if withdrawal or transfer from the account, then the amount is
	// negative").
	Amount currency.Amount `json:"amount"`
}

// Transfer is the §5.1 TRANSFER record: the cross-account movement tied to
// a pair of Transfer transactions by TransactionID, carrying the Resource
// Usage Record as an opaque blob ("GridBank stores RUR in binary format").
type Transfer struct {
	TransactionID       uint64          `json:"transaction_id"`
	Date                time.Time       `json:"date"`
	DrawerAccountID     ID              `json:"drawer_account_id"`    // GSC
	Amount              currency.Amount `json:"amount"`               // always positive
	RecipientAccountID  ID              `json:"recipient_account_id"` // GSP
	ResourceUsageRecord []byte          `json:"resource_usage_record,omitempty"`
	Cancelled           bool            `json:"cancelled,omitempty"`
	// ReversalID pins the transaction ID a cancellation's compensating
	// transfer uses, recorded durably before the reversal runs so a
	// crashed-and-retried cross-shard cancel re-drives the same
	// reversal instead of paying it twice (see shard.Ledger.
	// CancelTransfer). Zero on ordinary transfers.
	ReversalID uint64 `json:"reversal_id,omitempty"`
}

// Statement is the §5.2 Request Account Statement response: the account
// record plus its transactions and transfers within [Start, End].
type Statement struct {
	Account      Account       `json:"account"`
	Start        time.Time     `json:"start"`
	End          time.Time     `json:"end"`
	Transactions []Transaction `json:"transactions"`
	Transfers    []Transfer    `json:"transfers"`
}
