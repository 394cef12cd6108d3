// Package core is GridBank itself: the paper's primary contribution. It
// composes the Accounts Layer (internal/accounts), the Payment Protocol
// Layer (internal/payment) and the Security Layer (internal/pki +
// internal/wire) into the GridBank server of Figure 3, and provides the
// client side — the GridBank Payment Module (GBPM) — of Figure 1.
//
// The Bank type implements the full §5.2 GridBank API and §5.2.1 Admin
// API against an authenticated caller subject; Server exposes it over
// mutually-authenticated TLS with the §3.2 authorization gate ("only
// clients with existing account or administrator privilege are authorized
// and connected"); Client is the GBPM.
package core

import (
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/obs"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

// Operation names carried in wire.Request.Op. They map one-to-one onto
// the §5.2 API and §5.2.1 Admin API.
const (
	OpPing             = "Ping"
	OpCreateAccount    = "CreateAccount"    // §5.2 Create New Account
	OpAccountDetails   = "AccountDetails"   // §5.2 Request Account Details / Check Balance
	OpUpdateAccount    = "UpdateAccount"    // §5.2 Update Account Details
	OpAccountStatement = "AccountStatement" // §5.2 Request Account Statement
	OpCheckFunds       = "CheckFunds"       // §5.2 Perform Funds Availability Check
	OpDirectTransfer   = "DirectTransfer"   // §5.2 Request Direct Transfer (pay-before-use)
	OpRequestCheque    = "RequestCheque"    // §5.2 Request GridCheque
	OpRedeemCheque     = "RedeemCheque"     // §5.2 Redeem GridCheque
	OpRequestChain     = "RequestChain"     // §5.2 Request GridHash chain
	OpRedeemChain      = "RedeemChain"      // §5.2 Redeem GridHash chain
	OpReleaseCheque    = "ReleaseCheque"    // release an expired unredeemed cheque's lock
	OpReleaseChain     = "ReleaseChain"     // release an expired chain's remaining lock

	OpAdminDeposit     = "Admin.Deposit"           // §5.2.1 Deposit funds
	OpAdminWithdraw    = "Admin.Withdraw"          // §5.2.1 Withdraw
	OpAdminCreditLimit = "Admin.ChangeCreditLimit" // §5.2.1 Change credit limit
	OpAdminCancel      = "Admin.CancelTransfer"    // §5.2.1 Cancel Transfer
	OpAdminClose       = "Admin.CloseAccount"      // §5.2.1 Close account
	OpAdminAccounts    = "Admin.ListAccounts"      // operational visibility

	OpReplicaStatus = "Replica.Status"   // replication role, position and staleness
	OpShardMap      = "Shard.Map"        // shard count + vnodes for client-side placement
	OpMetrics       = "Metrics.Snapshot" // admin-only telemetry snapshot (primaries and replicas)
)

// Stable error codes returned in wire.Response.Code. The canonical
// definitions (values and semantics) live in the wire package — the
// single home of the wire error vocabulary — and are re-exported here
// so existing core-based call sites compile unchanged.
const (
	CodeOK           = wire.CodeOK
	CodeDenied       = wire.CodeDenied
	CodeNotFound     = wire.CodeNotFound
	CodeInsufficient = wire.CodeInsufficient
	CodeInvalid      = wire.CodeInvalid
	CodeDuplicate    = wire.CodeDuplicate
	CodeExpired      = wire.CodeExpired
	CodeConflict     = wire.CodeConflict
	CodeInternal     = wire.CodeInternal
	// CodeReadOnly marks a mutation sent to a read replica; the error
	// message names the primary's address to retry against.
	CodeReadOnly = wire.CodeReadOnly
	// CodeUnavailable marks a replica that cannot serve yet (still
	// bootstrapping from the primary).
	CodeUnavailable = wire.CodeUnavailable
	// CodeWrongShard marks a read sent to a replica that does not hold
	// the account's shard — the client's shard map is stale (or it
	// picked the wrong pool member); refresh via Shard.Map and retry.
	CodeWrongShard = wire.CodeWrongShard
	// CodeDeadlineExceeded marks a request shed by the server because
	// the caller's deadline_ms budget had already elapsed when a
	// dispatch slot came free — the caller is gone, so the work is not
	// done. Safe to retry (nothing executed).
	CodeDeadlineExceeded = wire.CodeDeadlineExceeded
)

// CreateAccountRequest opens an account for the authenticated caller. The
// certificate name is *not* a parameter: it is taken from the verified
// peer chain (§5.2: "Certificate is checked for authenticity; if
// legitimate, then Certificate Name is extracted").
type CreateAccountRequest struct {
	OrganizationName string        `json:"organization_name,omitempty"`
	Currency         currency.Code `json:"currency,omitempty"` // default G$
}

// CreateAccountResponse returns the new AccountID.
type CreateAccountResponse struct {
	Account accounts.Account `json:"account"`
}

// AccountDetailsRequest fetches an ACCOUNT record.
type AccountDetailsRequest struct {
	AccountID accounts.ID `json:"account_id"`
}

// AccountDetailsResponse carries the record.
type AccountDetailsResponse struct {
	Account accounts.Account `json:"account"`
}

// UpdateAccountRequest amends the mutable fields (§5.2: "Only
// CertificateName and OrganizationName can be modified").
type UpdateAccountRequest struct {
	AccountID        accounts.ID `json:"account_id"`
	CertificateName  string      `json:"certificate_name"`
	OrganizationName string      `json:"organization_name"`
}

// AccountStatementRequest asks for transactions in [Start, End].
type AccountStatementRequest struct {
	AccountID accounts.ID `json:"account_id"`
	Start     time.Time   `json:"start"`
	End       time.Time   `json:"end"`
}

// AccountStatementResponse carries the statement.
type AccountStatementResponse struct {
	Statement accounts.Statement `json:"statement"`
}

// CheckFundsRequest locks Amount as a payment guarantee (§5.2, §3.4).
type CheckFundsRequest struct {
	AccountID accounts.ID     `json:"account_id"`
	Amount    currency.Amount `json:"amount"`
}

// ConfirmationResponse is the generic positive acknowledgement, signed by
// the bank when Receipt is non-nil so the recipient can prove the
// confirmation to third parties.
type ConfirmationResponse struct {
	Confirmed bool        `json:"confirmed"`
	Receipt   *pki.Signed `json:"receipt,omitempty"`
}

// DirectTransferRequest is the pay-before-use funds transfer (§3.1): "GSC
// establishes secure connection with GridBank to provide account details
// of GSC and GSP as well as amount and URL of GSP."
type DirectTransferRequest struct {
	FromAccountID accounts.ID     `json:"from_account_id"`
	ToAccountID   accounts.ID     `json:"to_account_id"`
	Amount        currency.Amount `json:"amount"`
	// RecipientAddress, when set, asks the bank to push the signed
	// confirmation to the GSP's address over another secure channel.
	RecipientAddress string `json:"recipient_address,omitempty"`
	// IdempotencyKey, when set, makes the transfer idempotent: the bank
	// records the key in an op_dedup marker inside the same ledger
	// transaction as the transfer, and a repeat request with the same
	// key replays the recorded outcome instead of moving money twice.
	// Clients retrying after an ambiguous failure (timeout, dropped
	// connection) MUST reuse the original key. Replay protection lasts
	// for the bank's dedup TTL.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// BatchReceipt opts into amortized receipt signing: the response
	// carries a BatchProof (one bank signature shared by every transfer
	// in the batch window) instead of an individual Receipt. Verify with
	// VerifyBatchReceipt.
	BatchReceipt bool `json:"batch_receipt,omitempty"`
}

// TransferReceipt is the payload of the signed confirmation.
type TransferReceipt struct {
	TransactionID uint64          `json:"transaction_id"`
	Drawer        accounts.ID     `json:"drawer"`
	Recipient     accounts.ID     `json:"recipient"`
	Amount        currency.Amount `json:"amount"`
	Currency      currency.Code   `json:"currency"`
	Date          time.Time       `json:"date"`
}

// ReceiptContext domain-separates transfer receipts.
const ReceiptContext = "gridbank/receipt/v1"

// DirectTransferResponse returns the transfer record and signed receipt.
// Exactly one of Receipt and BatchProof is set: BatchProof answers
// requests that opted into batched receipt signing.
type DirectTransferResponse struct {
	TransactionID uint64             `json:"transaction_id"`
	Receipt       *pki.Signed        `json:"receipt,omitempty"`
	BatchProof    *BatchReceiptProof `json:"batch_proof,omitempty"`
}

// RequestChequeRequest asks the bank for a GridCheque made out to
// PayeeCert, locking Amount (§5.2 Request GridCheque; §3.4 guarantee).
type RequestChequeRequest struct {
	AccountID accounts.ID     `json:"account_id"`
	Amount    currency.Amount `json:"amount"`
	PayeeCert string          `json:"payee_cert"`
	TTL       time.Duration   `json:"ttl,omitempty"` // default 24h
}

// RequestChequeResponse carries the signed cheque.
type RequestChequeResponse struct {
	Cheque payment.SignedCheque `json:"cheque"`
}

// RedeemChequeRequest is submitted by the GSP with the usage evidence
// (§5.2 Redeem GridCheque: Input GridCheque, Resource Usage Record).
type RedeemChequeRequest struct {
	Cheque payment.SignedCheque `json:"cheque"`
	Claim  payment.ChequeClaim  `json:"claim"`
}

// RedeemChequeResponse confirms settlement.
type RedeemChequeResponse struct {
	TransactionID uint64          `json:"transaction_id"`
	Paid          currency.Amount `json:"paid"`
	Released      currency.Amount `json:"released"` // unspent lock returned to drawer
}

// RequestChainRequest asks for a GridHash chain (§5.2): Length words of
// PerWord value each, locking Length×PerWord.
type RequestChainRequest struct {
	AccountID accounts.ID     `json:"account_id"`
	PayeeCert string          `json:"payee_cert"`
	Length    int             `json:"length"`
	PerWord   currency.Amount `json:"per_word"`
	TTL       time.Duration   `json:"ttl,omitempty"` // default 24h, at most maxChainTTL
}

// RequestChainResponse returns the signed commitment plus the secret seed
// (over the encrypted channel, to the account owner only).
type RequestChainResponse struct {
	Chain payment.SignedChain `json:"chain"`
	Seed  []byte              `json:"seed"`
}

// RedeemChainRequest redeems a chain up to Claim.Index (incremental:
// repeated redemptions pay only the delta).
type RedeemChainRequest struct {
	Chain payment.SignedChain `json:"chain"`
	Claim payment.ChainClaim  `json:"claim"`
}

// RedeemChainResponse confirms the incremental payout.
type RedeemChainResponse struct {
	TransactionID uint64          `json:"transaction_id,omitempty"` // 0 when delta was zero
	Paid          currency.Amount `json:"paid"`
	IndexNow      int             `json:"index_now"`
}

// ReleaseRequest releases the remaining lock of an expired instrument
// back to the drawer.
type ReleaseRequest struct {
	Serial string `json:"serial"`
}

// ReleaseResponse reports the amount returned to the available balance.
type ReleaseResponse struct {
	Released currency.Amount `json:"released"`
}

// AdminAmountRequest covers deposit / withdraw / credit-limit ops.
type AdminAmountRequest struct {
	AccountID accounts.ID     `json:"account_id"`
	Amount    currency.Amount `json:"amount"`
}

// AdminCancelRequest reverses a transfer.
type AdminCancelRequest struct {
	TransactionID uint64 `json:"transaction_id"`
}

// AdminCloseRequest closes an account, sweeping the balance to TransferTo.
type AdminCloseRequest struct {
	AccountID  accounts.ID `json:"account_id"`
	TransferTo accounts.ID `json:"transfer_to,omitempty"`
}

// AdminAccountsResponse lists all accounts.
type AdminAccountsResponse struct {
	Accounts []accounts.Account `json:"accounts"`
}

// Replica roles reported by Replica.Status.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// ReplicaStatusResponse reports a server's replication position. A
// primary is its own head (zero staleness); a replica reports how far
// its applied sequence trails the primary's and how long ago it was
// last observed caught up — the number read-routing clients compare
// against their max-staleness bound.
type ReplicaStatusResponse struct {
	Role       string `json:"role"` // RolePrimary or RoleReplica
	AppliedSeq uint64 `json:"applied_seq"`
	HeadSeq    uint64 `json:"head_seq"`
	// StaleFor is how long the server's state may trail the primary
	// (zero on the primary; bounded by the replication heartbeat on a
	// healthy replica).
	StaleFor time.Duration `json:"stale_for"`
	// PrimaryAddr is where mutations must go (replicas only).
	PrimaryAddr string `json:"primary_addr,omitempty"`
}

// ShardMapResponse is the Shard.Map answer: everything a client needs
// to compute account→shard placement locally. The ring is a pure
// function of (Shards, Vnodes), so shipping the two numbers ships the
// whole map.
type ShardMapResponse struct {
	// Shards is the shard count (1 = unsharded).
	Shards int `json:"shards"`
	// Vnodes is the virtual-node count per shard on the placement ring.
	Vnodes int `json:"vnodes"`
	// ShardIndex is the answering server's own shard: −1 on a primary
	// (it serves every shard), the followed shard on a replica.
	ShardIndex int `json:"shard_index"`
	// PrimaryAddr is where mutations and unroutable reads go (replicas
	// only).
	PrimaryAddr string `json:"primary_addr,omitempty"`
}

// MetricsSnapshotResponse is the Metrics.Snapshot answer: the server's
// telemetry registry at the moment of the call (admin-only; served by
// primaries and read-only replicas alike). Enabled is false when the
// process runs without a registry — the snapshot is then empty rather
// than an error, so fleet-wide scrapes degrade gracefully.
type MetricsSnapshotResponse struct {
	Enabled  bool         `json:"enabled"`
	Snapshot obs.Snapshot `json:"snapshot"`
}
