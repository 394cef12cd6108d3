// Package micropay is the GridHash pay-as-you-go fast path: the
// paper's §3.3 hash-chain micro-payment instrument carried at wire
// speed. One ECDSA signature (the chain commitment, §5.2 Request
// GridHash chain) authorizes up to 2^20 payments; every subsequent
// payment is one SHA-256 preimage, verified incrementally in O(delta)
// hashes. This package holds the two halves the seed repo was missing:
//
//   - Redeemer: chain redemption done right. The chain row advance and
//     the money movement commit in ONE store transaction on the
//     drawer's shard (accounts tx API), so a crash can never replay a
//     paid delta. When the payee lives on another shard the redemption
//     pins its transaction ID write-ahead in the chain row and drives
//     the 2PC transfer under it.
//   - Pipeline: streaming claim intake and batched redemption. GSPs
//     submit chain claims in batches (Micropay.Submit); intake verifies
//     each preimage against the highest word already accepted —
//     O(delta) hashes — keeps only the highest index per serial (the
//     delta rule makes lower claims redundant), and durably spools it in
//     the chain's ONE spool row: a chain that already has a pending row
//     has it overwritten with the higher claim, in the same intake
//     transaction. Intake locks per chain, so Submits on disjoint chains
//     share one spool flush. Workers batch spooled rows per (shard,
//     drawer) and settle each chain with one redemption transaction.
//     Thousands of micro-payments amortize into a few signatures' worth
//     of work and a handful of group-committed ledger transactions.
//
// The spool, queue, worker, retry, backpressure and Drain lifecycle is
// internal/settle's. What the pipeline adds:
//
//   - Exactly-once settlement: the chain row's RedeemedIndex advances
//     monotonically in the same transaction that moves the money, so a
//     replayed or crash-recovered claim is recognized as stale and
//     pays nothing. No separate marker table is needed — the row IS
//     the marker.
//   - Malformed-vs-transient: a claim that can never settle (unknown
//     serial, bad preimage, expired chain, wrong payee) is rejected at
//     intake with a per-claim reason; transient faults surface as
//     Submit errors the caller retries.
//
// Row formats. Rows are bin1 (wire.RowBin1): a 0xB1 version byte, a
// flags byte, then the fields; nothing the key holds is stored again, and
// an instant UnixNano cannot hold (after 2262) is refused, never wrapped
// (the bank caps a chain's TTL well inside that).
//
//   - Spool rows (table "micropay_spool", key = serial): one per chain
//     with unsettled claims, holding only the claim — index, claims,
//     enqueued, word, rur (encodeSpoolRow). "claims" counts every claim
//     Submits folded and merged into it; "enqueued" is the oldest one's
//     instant; "rur" is the top claim's evidence. The drawer comes from
//     the chain commitment at recovery, the payee from the intake session
//     or the account directory at settlement. A flags bit marks the
//     layout; another marks a parked row, whose reason follows.
//   - Chain rows (table "chains", key = serial, on the drawer's shard):
//     the signed commitment, written once at issue (ChainRow.encode).
//   - Chain head rows (table "chain_heads", same key and store): state,
//     redeemed index and word, and a pinned cross-shard redemption's Pin*
//     fields (ChainRow.encodeHead), rewritten by every redemption, pin,
//     advance and release in the transaction that moves the money.
//
// Rows written by earlier versions stay readable forever: spool rows
// under "<serial>/<index>" keys, one per Submit, carrying drawer and payee
// (bin1 without the per-chain bit, or JSON — then without "claims" when
// older than intake folding, standing for one claim), and combined chain
// rows with no head row, which read as their own head (pinned ones
// included). A chain with a legacy spool row and a per-chain one settles
// once: its RedeemedIndex is the marker. Every write is in the current
// layout, except that a legacy spool row is re-parked in its own. The
// row format does not follow the journal codec, and the upgrade is
// one-way: a data dir this package has written to cannot be opened by a
// binary that predates it.
package micropay

import (
	"errors"
	"fmt"
	"time"

	"gridbank/internal/accounts"
)

// Pipeline errors.
var (
	// ErrOverloaded refuses an intake batch because settlement lags;
	// callers back off and retry. The wire layer maps it to the stable
	// "overloaded" code.
	ErrOverloaded = errors.New("micropay: settlement pipeline overloaded, retry later")
	// ErrClosed rejects operations on a closed pipeline.
	ErrClosed = errors.New("micropay: pipeline closed")
	// ErrDrainStalled reports a Drain that stopped making progress.
	ErrDrainStalled = errors.New("micropay: drain stalled, pending claims not settling")
	// ErrDrainTimeout reports a Drain that ran out of time.
	ErrDrainTimeout = errors.New("micropay: drain timed out")
)

// Redemption errors.
var (
	// ErrUnknownChain reports a serial with no chain row anywhere on
	// the ledger.
	ErrUnknownChain = errors.New("micropay: unknown chain serial")
	// ErrStaleIndex reports a claim at or below the redeemed position:
	// a replay or an out-of-date claim. Paying it would double-pay, so
	// it settles as a duplicate (zero value moved).
	ErrStaleIndex = errors.New("micropay: claim index not beyond redeemed position")
	// ErrChainState reports an operation against a chain that is no
	// longer outstanding (already fully redeemed or released).
	ErrChainState = errors.New("micropay: chain is not outstanding")
)

// Claim is one streamed redemption claim: the highest word the payee
// holds for a chain, plus optional usage evidence. Cumulative value is
// Index × PerWord; the bank pays the delta above the redeemed position.
type Claim struct {
	Serial string `json:"serial"`
	Index  int    `json:"index"`
	Word   []byte `json:"word"`
	RUR    []byte `json:"rur,omitempty"`
}

// Rejection reports one claim refused at intake, with the reason.
// Rejections are terminal: the same claim will be rejected again.
type Rejection struct {
	Serial string `json:"serial"`
	Index  int    `json:"index"`
	Reason string `json:"reason"`
}

// SubmitResult summarizes one intake batch. Accepted counts the claims
// verified and covered by a durable spool row (one row per chain, see
// Submit); AcceptedTicks counts the chain words newly covered by them —
// the number of micro-payments this batch advanced the stream by.
type SubmitResult struct {
	Accepted      int         `json:"accepted"`
	AcceptedTicks int         `json:"accepted_ticks"`
	Duplicates    int         `json:"duplicates"`
	Rejected      []Rejection `json:"rejected,omitempty"`
}

// Stats is the pipeline's observable state (Micropay.Status). Pending,
// QueueDepth, InFlight and Failed count spool rows — what occupies the
// spool and the queue: one per chain with unsettled claims, however many
// claims and Submits it stands for (plus any legacy per-Submit rows). The
// Settled*, Duplicates and Rejected counters count claims.
type Stats struct {
	// Pending counts chains with claims spooled but not yet settled.
	Pending int `json:"pending"`
	// QueueDepth counts chains waiting for a worker.
	QueueDepth int `json:"queue_depth"`
	// InFlight counts chains inside a settlement batch.
	InFlight int `json:"in_flight"`
	// Failed counts rows parked by terminal settlement outcomes.
	Failed int `json:"failed"`
	// SettledTicks counts chain words paid out — individual
	// micro-payments — since this pipeline instance started.
	SettledTicks uint64 `json:"settled_ticks"`
	// SettledClaims counts the claims of the rows that reached settlement.
	SettledClaims uint64 `json:"settled_claims"`
	// Duplicates counts stale/replayed claims recognized and skipped.
	Duplicates uint64 `json:"duplicates"`
	// Rejected counts claims refused at intake.
	Rejected uint64 `json:"rejected"`
	// Batches counts redemption transactions; SettledTicks/Batches is
	// the amortization factor.
	Batches uint64 `json:"batches"`
	// CrossShard counts redemptions driven through the pinned 2PC path.
	CrossShard uint64 `json:"cross_shard"`
	// Workers and BatchSize echo the pipeline's configuration.
	Workers   int `json:"workers"`
	BatchSize int `json:"batch_size"`
	// LastError is the most recent transient settlement error.
	LastError string `json:"last_error,omitempty"`
}

// Boundary identifies a durable step of the redemption protocol, for
// fault injection: a crash hook fires immediately after the named step
// became durable.
type Boundary int

// The redemption protocol's durable step boundaries, in order.
const (
	// BoundarySpooled: intake claims journaled, settlement not started.
	BoundarySpooled Boundary = iota + 1
	// BoundaryPinned: a cross-shard redemption's transaction ID pinned
	// in the chain row, transfer not yet driven.
	BoundaryPinned
	// BoundarySettled: the money movement is durable — for same-shard
	// redemptions this includes the row advance (one atomic
	// transaction); for cross-shard the 2PC transfer completed, row not
	// yet advanced.
	BoundarySettled
	// BoundaryAdvanced: a cross-shard redemption's chain row advanced
	// and unpinned.
	BoundaryAdvanced
	// BoundaryCleaned: spool rows deleted/parked; the claims are fully
	// finished.
	BoundaryCleaned
)

// String names a boundary for test output.
func (b Boundary) String() string {
	switch b {
	case BoundarySpooled:
		return "spooled"
	case BoundaryPinned:
		return "pinned"
	case BoundarySettled:
		return "settled"
	case BoundaryAdvanced:
		return "advanced"
	case BoundaryCleaned:
		return "cleaned"
	default:
		return fmt.Sprintf("boundary(%d)", int(b))
	}
}

// spool row states.
const (
	statePending = "pending"
	stateFailed  = "failed"
)

// spoolRow is a chain's durable intake: its highest verified claim not
// yet settled, standing for every claim Submits folded and merged into
// it. A per-chain row (key = serial) stores only the claim; Drawer is
// resolved from the chain commitment at recovery and Payee at settlement.
// A legacy row (key "<serial>/<index>", one per Submit) carries both,
// resolved at its intake. The json tags read legacy rows only; rows are
// written in bin1 (encodeSpoolRow).
type spoolRow struct {
	Key      string      `json:"key"`
	Serial   string      `json:"serial"`
	Index    int         `json:"index"`
	Word     []byte      `json:"word"`
	RUR      []byte      `json:"rur,omitempty"`
	Claims   int         `json:"claims,omitempty"` // claims folded into the row; absent on rows older than the fold
	Drawer   accounts.ID `json:"drawer"`
	Payee    accounts.ID `json:"payee"`
	State    string      `json:"state"`
	Reason   string      `json:"reason,omitempty"`
	Enqueued time.Time   `json:"enqueued"`

	// Set by Submit: the claims and instant of this Submit alone, which
	// the intake transaction merges with the row the key holds.
	submitted   int
	submittedAt time.Time
	admitted    bool // set by the intake transaction that wrote the row
}

// claims is how many submitted claims the row stands for.
func (r *spoolRow) claims() int { return max(r.Claims, 1) }

// legacySpoolKey is the key rows were spooled under before one row per
// chain: a serial could be claimed at each index at most once.
func legacySpoolKey(serial string, index int) string {
	return fmt.Sprintf("%s/%012d", serial, index)
}

// The settlement engine's view of a row (settle.Row).
func (r *spoolRow) SpoolKey() string      { return r.Key }
func (r *spoolRow) DrawerID() accounts.ID { return r.Drawer }
func (r *spoolRow) Parked() bool          { return r.State == stateFailed }
func (r *spoolRow) Park(reason string)    { r.State, r.Reason = stateFailed, reason }
