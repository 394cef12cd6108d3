package core

import (
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// Ledger is the accounts surface Bank dispatches through. shard.Ledger
// is its one implementation: N consistent-hash shards (N = 1 for a
// single-store bank) with commit-point cross-shard transfers. The
// interface is declared here so Bank stays shard-agnostic — routing
// decisions live entirely behind it.
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
