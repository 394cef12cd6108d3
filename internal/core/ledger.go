package core

import (
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/shard"
)

// Ledger is the accounts surface Bank dispatches through. Two
// implementations exist: managerLedger wraps a single accounts.Manager
// (the classic one-store bank), and shard.Ledger spreads the same
// surface over N consistent-hash shards with two-phase-commit
// cross-shard transfers. Bank itself is shard-agnostic — routing
// decisions live entirely behind this interface.
type Ledger interface {
	CreateAccount(certName, orgName string, cur currency.Code) (*accounts.Account, error)
	Details(id accounts.ID) (*accounts.Account, error)
	FindByCertificate(certName string, cur currency.Code) (*accounts.Account, error)
	UpdateDetails(id accounts.ID, certName, orgName string) (*accounts.Account, error)
	CheckFunds(id accounts.ID, amount currency.Amount) error
	Unlock(id accounts.ID, amount currency.Amount) error
	Transfer(drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error)
	Statement(id accounts.ID, start, end time.Time) (*accounts.Statement, error)
	GetTransfer(txID uint64) (*accounts.Transfer, error)
	TotalBalance() (currency.Amount, error)
	Accounts() ([]accounts.Account, error)

	// SweepDedup garbage-collects op_dedup idempotency markers older
	// than cutoff, returning how many were removed.
	SweepDedup(cutoff time.Time) (int, error)

	// §5.2.1 admin operations.
	Deposit(id accounts.ID, amount currency.Amount) error
	Withdraw(id accounts.ID, amount currency.Amount) error
	ChangeCreditLimit(id accounts.ID, limit currency.Amount) error
	CancelTransfer(txID uint64) error
	CloseAccount(id, transferTo accounts.ID) error

	// Store returns the metadata store: where the bank core keeps the
	// administrator table (the whole ledger for a single-store bank,
	// shard 0 for a sharded one).
	Store() *db.Store

	// Shards / ShardFor / ShardManager / ShardStore expose account
	// placement and per-shard transactional access — the same shape the
	// usage and micropay settlement pipelines consume — so the bank can
	// compose instrument-state changes and money movement into one
	// store transaction on the owning shard (chain redemption must be
	// atomic with the chain row advance).
	Shards() int
	ShardFor(id accounts.ID) int
	ShardManager(i int) *accounts.Manager
	ShardStore(i int) *db.Store

	// ShardTopology reports the placement parameters clients need to
	// compute account→shard mapping locally: shard count and virtual
	// nodes per shard. (1, vnodes) means unsharded.
	ShardTopology() (shards, vnodes int)
}

// managerLedger adapts a single accounts.Manager (plus its admin
// module) to the Ledger interface.
type managerLedger struct {
	*accounts.Manager
}

func (m managerLedger) Deposit(id accounts.ID, amount currency.Amount) error {
	return m.Admin().Deposit(id, amount)
}

func (m managerLedger) Withdraw(id accounts.ID, amount currency.Amount) error {
	return m.Admin().Withdraw(id, amount)
}

func (m managerLedger) ChangeCreditLimit(id accounts.ID, limit currency.Amount) error {
	return m.Admin().ChangeCreditLimit(id, limit)
}

func (m managerLedger) CancelTransfer(txID uint64) error {
	return m.Admin().CancelTransfer(txID)
}

func (m managerLedger) CloseAccount(id, transferTo accounts.ID) error {
	return m.Admin().CloseAccount(id, transferTo)
}

func (m managerLedger) ShardTopology() (int, int) { return 1, shard.DefaultVnodes }

func (m managerLedger) Shards() int                        { return 1 }
func (m managerLedger) ShardFor(accounts.ID) int           { return 0 }
func (m managerLedger) ShardManager(int) *accounts.Manager { return m.Manager }
func (m managerLedger) ShardStore(int) *db.Store           { return m.Manager.Store() }

var _ Ledger = managerLedger{}
var _ Ledger = (*shard.Ledger)(nil)
