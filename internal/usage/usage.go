// Package usage is the batched asynchronous usage-settlement pipeline:
// the missing middle of the paper's core loop. The Grid Resource Meter
// (§2.1) emits Resource Usage Records, the Charging Module prices them,
// and GridBank settles them against accounts — but settling one RUR at
// a time costs one durable ledger transaction (one fsync) per job,
// which caps the whole deployment at the disk's sync rate. This
// package accepts *streams* of priced usage records, spools them to a
// WAL-backed intake queue, and settles them asynchronously against the
// ledger in per-(shard, account) batches, so thousands of small
// charges amortize into a few group-committed transactions.
//
// The spool, queue, worker, retry, backpressure and Drain lifecycle is
// internal/settle's (durable intake: an acknowledged submission is
// journaled and survives a crash; ErrOverloaded when settlement lags
// intake past the bound). What this package adds:
//
//   - Pricing and validation at intake: a record that can never become
//     valid (undecodable RUR, validation failure, non-conforming rates)
//     is rejected — classified via meter.ErrMalformed — while transient
//     faults surface as Submit errors the caller retries.
//   - Exactly-once settlement, keyed by submission ID: settling a
//     charge writes a settled-marker row in the *same shard store* (and
//     for same-shard charges, the same transaction) as the ledger
//     effect, so a replay after a crash — or a duplicate submission —
//     is deduplicated, never double-charged.
//
// Spool format (table "usage_spool" on the spool store, key = ID):
// bin1, laid out at encodeSpoolRow — a 0xB1 version byte, a flags byte
// (parked, pinned), the amount in micro-units, the intake instant as
// UnixNano, drawer, recipient and the raw RUR, then the pinned
// transaction ID and the park reason when they are set. The ID is the
// key's and is not stored again. A value opening with "{" is a legacy
// JSON row, written before bin1, and stays readable forever:
//
//	{"id":"job-42","drawer":"01-0001-00000003",
//	 "recipient":"01-0001-00000007","amount":"1.25",
//	 "rur":"<base64>","state":"pending","pin_txid":17,
//	 "enqueued":"..."}
//
// Every write, re-parking or pinning a legacy row included, is bin1. The
// row format does not follow the journal codec, and the upgrade is
// one-way: a spool this package has written to cannot be opened by a
// binary that only reads JSON rows.
//
// Settled markers (table "usage_settled" on the drawer's shard store,
// key = ID):
//
//	{"id":"job-42","txid":17}
//
// Cross-shard charges cannot make marker and money movement one
// transaction, so they pin a transaction ID in the spool row first
// (write-ahead, like the sharded ledger's cancellation reversals): a
// crashed-and-retried settlement re-drives the same pinned 2PC
// transfer, checks whether it already landed, and only then writes the
// marker. Startup recovery reseeds the ledger's transaction-ID
// allocator above every pinned ID so fresh transfers never collide
// with a pinned-but-unfinished one.
package usage

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/wire"
)

// Pipeline errors.
var (
	// ErrOverloaded refuses an intake batch because settlement lags:
	// accepting it would grow the pending queue past the configured
	// bound. Callers back off and retry; the wire layer maps it to a
	// stable "overloaded" code.
	ErrOverloaded = errors.New("usage: settlement pipeline overloaded, retry later")
	// ErrClosed rejects operations on a closed pipeline.
	ErrClosed = errors.New("usage: pipeline closed")
	// ErrDrainStalled reports a Drain that stopped making progress:
	// pending charges remain but a full settlement pass settled none
	// (e.g. the ledger is refusing writes).
	ErrDrainStalled = errors.New("usage: drain stalled, pending charges not settling")
	// ErrDrainTimeout reports a Drain that ran out of time.
	ErrDrainTimeout = errors.New("usage: drain timed out")
)

// Submission is one usage record offered for asynchronous settlement:
// the RUR plus everything needed to price and route it.
type Submission struct {
	// ID is the idempotency key — globally unique per metered job
	// (RUR/job ID). Submitting the same ID twice, or replaying a batch
	// after a crash, settles it once.
	ID string `json:"id"`
	// Drawer is the consumer account to charge.
	Drawer accounts.ID `json:"drawer"`
	// Recipient is the provider account to credit.
	Recipient accounts.ID `json:"recipient"`
	// RUR is the encoded Resource Usage Record (JSON or XML; rur.Decode
	// sniffs). It is priced at intake and stored in the TRANSFER record
	// as §5.1 evidence.
	RUR []byte `json:"rur"`
	// Rates prices the record (§2.1: rates and RUR must conform).
	Rates *rur.RateCard `json:"rates"`

	// Record is the decoded form of RUR, fillable by a caller that
	// already decoded the bytes (the bank's evidence-binding check does)
	// so intake does not decode twice. Never trusted off the wire
	// (json:"-"); when nil, intake decodes RUR itself.
	Record *rur.Record `json:"-"`
}

// Rejection reports one submission refused at intake, with the reason.
// Rejections are terminal: the same bytes will be rejected again.
type Rejection struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// SubmitResult summarizes one intake batch.
type SubmitResult struct {
	// Accepted counts submissions durably spooled by this call.
	Accepted int `json:"accepted"`
	// Duplicates counts submissions already spooled or already settled
	// (idempotent re-submission; not an error).
	Duplicates int `json:"duplicates"`
	// Rejected lists malformed submissions, with reasons.
	Rejected []Rejection `json:"rejected,omitempty"`
}

// Stats is the pipeline's observable state (Usage.Status).
type Stats struct {
	// Pending counts charges spooled but not yet settled (including
	// in-flight batches).
	Pending int `json:"pending"`
	// QueueDepth counts charges sitting in the batcher's in-memory
	// queue, waiting for a worker (a subset of Pending).
	QueueDepth int `json:"queue_depth"`
	// InFlight counts charges currently inside a settlement batch
	// (taken off the queue, not yet terminal).
	InFlight int `json:"in_flight"`
	// Failed counts charges parked by business failures (insufficient
	// funds, closed account); they stay in the spool with their reason,
	// and re-submitting the same ID retries them (they never settled,
	// so exactly-once is preserved).
	Failed int `json:"failed"`
	// Settled, Duplicates and Rejected count outcomes since this
	// pipeline instance started. A recovered charge found already
	// settled is not a duplicate: usage.cleanup_redone counts those.
	Settled    uint64 `json:"settled"`
	Duplicates uint64 `json:"duplicates"`
	Rejected   uint64 `json:"rejected"`
	// Batches counts ledger transactions used for same-shard batch
	// settlement; Settled/Batches is the amortization factor.
	Batches uint64 `json:"batches"`
	// CrossShard counts charges settled through the 2PC pinned path.
	CrossShard uint64 `json:"cross_shard"`
	// Workers and BatchSize echo the pipeline's configuration.
	Workers   int `json:"workers"`
	BatchSize int `json:"batch_size"`
	// LastError is the most recent transient settlement error, for
	// operators ("" when none).
	LastError string `json:"last_error,omitempty"`
}

// Boundary identifies a durable step of the settlement protocol, for
// fault injection: a crash hook fires immediately after the named step
// became durable.
type Boundary int

// The pipeline's durable step boundaries, in protocol order.
const (
	// BoundarySpooled: intake rows journaled, settlement not started.
	BoundarySpooled Boundary = iota + 1
	// BoundaryPinned: a cross-shard charge's transaction ID pinned in
	// its spool row, transfer not yet driven.
	BoundaryPinned
	// BoundarySettled: the ledger effect is durable — for same-shard
	// batches this includes the markers (one atomic transaction); for
	// cross-shard charges the 2PC transfer completed, marker not yet
	// written.
	BoundarySettled
	// BoundaryMarked: a cross-shard charge's settled marker written,
	// spool row not yet cleaned.
	BoundaryMarked
	// BoundaryCleaned: spool rows deleted/parked; the charge is fully
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
	case BoundaryMarked:
		return "marked"
	case BoundaryCleaned:
		return "cleaned"
	default:
		return fmt.Sprintf("boundary(%d)", int(b))
	}
}

// Ledger is the settlement target: the accounts surface spread over one
// or more shards. The pipeline composes its batched transactions from
// the accounts tx API against ShardStore/ShardManager directly, so each
// batch rides the shard's existing group-commit journal.
type Ledger interface {
	// Shards returns the shard count (1 = unsharded).
	Shards() int
	// ShardFor maps an account ID to its owning shard.
	ShardFor(id accounts.ID) int
	// ShardManager returns shard i's accounts manager.
	ShardManager(i int) *accounts.Manager
	// ShardStore returns shard i's store.
	ShardStore(i int) *db.Store
}

// CrossShardLedger adds the pinned-transfer surface a sharded ledger
// exposes for exactly-once cross-shard settlement. A Ledger that does
// not implement it (the single-store wrapper) never sees cross-shard
// charges, so the pipeline only requires it when Shards() > 1.
type CrossShardLedger interface {
	Ledger
	// AllocTxID allocates a deployment-wide transaction ID to pin.
	AllocTxID() uint64
	// SeedTxIDsAbove raises the allocator above recovered pins.
	SeedTxIDsAbove(n uint64)
	// TransferWithID drives a cross-shard transfer under a pinned ID.
	TransferWithID(txID uint64, drawer, recipient accounts.ID, amount currency.Amount, opts accounts.TransferOptions) (*accounts.Transfer, error)
	// ResolveInDoubt finishes or aborts a pinned transfer's 2PC state.
	ResolveInDoubt(debitShard int, txID uint64) error
	// GetTransfer reports whether (and what) a pinned ID settled.
	GetTransfer(txID uint64) (*accounts.Transfer, error)
}

// WrapSharded is the identity (*shard.Ledger is a CrossShardLedger),
// kept for bench/ and the public gridbank.WrapShardedLedger.
func WrapSharded(l *shard.Ledger) CrossShardLedger { return l }

// settledMarker is the exactly-once marker row.
type settledMarker struct {
	ID   string `json:"id"`
	TxID uint64 `json:"txid,omitempty"` // 0 for zero-amount settlements
}

// spool row states.
const (
	statePending = "pending"
	stateFailed  = "failed"
)

// spoolRow is one durable intake record. The json tags read legacy
// rows only; rows are written in bin1 (encodeSpoolRow).
type spoolRow struct {
	ID        string          `json:"id"`
	Drawer    accounts.ID     `json:"drawer"`
	Recipient accounts.ID     `json:"recipient"`
	Amount    currency.Amount `json:"amount"`
	RUR       []byte          `json:"rur,omitempty"`
	State     string          `json:"state"`
	// PinTxID is the write-ahead transaction ID of a cross-shard
	// settlement (0 until pinned; same-shard charges never pin).
	PinTxID uint64 `json:"pin_txid,omitempty"`
	// Reason records why a failed row was parked.
	Reason   string    `json:"reason,omitempty"`
	Enqueued time.Time `json:"enqueued"`
}

// The settlement engine's view of a row (settle.Row).
func (r *spoolRow) SpoolKey() string      { return r.ID }
func (r *spoolRow) DrawerID() accounts.ID { return r.Drawer }
func (r *spoolRow) Parked() bool          { return r.State == stateFailed }
func (r *spoolRow) Park(reason string)    { r.State, r.Reason = stateFailed, reason }

// Spool row flags (the second byte of a wire.RowBin1 value).
const (
	spoolParked = 1 << 0 // parked (state failed): the reason follows
	spoolPinned = 1 << 1 // a cross-shard transaction ID is pinned: it follows
)

// encodeSpoolRow is a spool row's bin1 value (settle.Config.Encode);
// the ID is the entry key's:
//
//	0xB1 flags:u8 amount:u64 enqueued:u64 drawer:str16 recipient:str16
//	rur:blob32 [pin_txid:u64 — pinned only] [reason:str16 — parked only]
func encodeSpoolRow(r *spoolRow) ([]byte, error) {
	var flags byte
	if r.PinTxID != 0 {
		flags |= spoolPinned
	}
	if r.Parked() {
		flags |= spoolParked
	}
	var buf bytes.Buffer
	wire.AppendRowHeader(&buf, flags)
	wire.AppendU64(&buf, uint64(r.Amount))
	err := errors.Join(
		wire.AppendTime(&buf, r.Enqueued),
		wire.AppendStr16(&buf, string(r.Drawer)),
		wire.AppendStr16(&buf, string(r.Recipient)),
		wire.AppendBlob32(&buf, r.RUR),
	)
	if flags&spoolPinned != 0 {
		wire.AppendU64(&buf, r.PinTxID)
	}
	if flags&spoolParked != 0 {
		err = errors.Join(err, wire.AppendStr16(&buf, r.Reason))
	}
	if err != nil {
		return nil, fmt.Errorf("usage: encoding spool row %s: %w", r.ID, err)
	}
	return buf.Bytes(), nil
}

// decodeSpoolRow reads the spool row stored under id, bin1 or legacy
// JSON (settle.Config.Decode). The ID always comes from the key.
func decodeSpoolRow(id string, raw []byte) (*spoolRow, error) {
	row := &spoolRow{State: statePending}
	err := wire.ReadRow(raw, row, spoolParked|spoolPinned, func(flags byte, br *wire.BinReader) error {
		row.Amount = currency.Amount(br.U64())
		row.Enqueued = br.Time()
		row.Drawer, row.Recipient = accounts.ID(br.Str16()), accounts.ID(br.Str16())
		row.RUR = br.Blob32()
		if flags&spoolPinned != 0 {
			if row.PinTxID = br.U64(); row.PinTxID == 0 && br.Err() == nil {
				return errors.New("pinned spool row with transaction ID 0")
			}
		}
		if flags&spoolParked != 0 {
			row.Park(br.Str16())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	row.ID = id
	return row, nil
}
