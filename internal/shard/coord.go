package shard

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/wire"
)

// Cross-shard transfers: one commit-point transaction, one credit.
//
// The coordinator keeps no state of its own: every protocol step is a
// single db transaction on one shard's store, riding that shard's
// existing write-ahead journal. The coordinator lives on the debit
// shard and the credit side can never vote no (a recipient that closes
// after the commit point is still credited), so there is nothing to
// decide after the debit: the debit-shard transaction IS the commit
// point, and the protocol costs one awaited durable commit per shard.
//
// Record format (documented alongside the journal format in README):
//
//	table "pc_transfers" (debit shard), key = GID (the transaction ID,
//	zero-padded to 20 digits) — the outbox row, a bin1 value
//	(pcRecord.encode); older binaries wrote JSON rows, which decode
//	forever.
//
// Protocol, in durable steps (crash boundaries for the fault harness):
//
//	1. commit   (debit, awaited):   one transaction debits the drawer
//	                                (balance or lock, plus the release of
//	                                an instrument's unspent lock and the
//	                                caller's in-transaction callback),
//	                                writes the drawer-side §5.1
//	                                TRANSACTION row and TRANSFER record,
//	                                spends the op_dedup marker of a keyed
//	                                call, and inserts the outbox row,
//	                                state "committed". The amount now
//	                                lives in the outbox row (escrow).
//	                                Before this commit nothing happened;
//	                                after it completion is inevitable.
//	2. credit   (credit, awaited):  add the amount to the recipient and
//	                                write the recipient-side TRANSACTION
//	                                row and TRANSFER record. Idempotent:
//	                                the recipient-side TRANSFER record for
//	                                the transaction ID is the witness that
//	                                the credit landed. The caller is
//	                                answered after this commit.
//	3. cleanup  (debit, unawaited): delete the outbox row. Staged in the
//	                                WAL without waiting (it rides the
//	                                shard's next group flush); a crash
//	                                that loses it leaves a live outbox
//	                                row whose credit witness exists, and
//	                                recovery deletes it again.
//
// Recovery (Ledger.Recover, run at startup; ResolveInDoubt for one ID)
// re-drives steps 2–3 for every outbox row. Money is never created or
// destroyed across a crash: at every boundary the total of account
// balances plus outbox rows whose credit witness is missing is constant
// (PendingEscrow).
//
// Journals written by older binaries may also hold rows of the retired
// prepare/decide protocol, which recovery still resolves: "prepared"
// and "aborted" rows (funds escrowed, no commit decision, no §5.1 rows)
// are presumed-abort — the escrow returns to the drawer; "committed"
// rows whose drawer-side §5.1 rows were to be written at the old
// finalize step get them at cleanup; "pc_applied" credit markers
// (always written together with the recipient-side TRANSFER record, so
// never consulted) are deleted.

// Shard-local table names for 2PC bookkeeping.
const (
	tablePC        = "pc_transfers"
	tablePCApplied = "pc_applied" // legacy journals only
)

// pc record states. Only pcCommitted is ever written.
const (
	pcPrepared  = "prepared" // legacy journals only
	pcCommitted = "committed"
	pcAborted   = "aborted" // legacy journals only
)

// Step identifies a durable step boundary, for fault injection.
type Step int

// The coordinator's durable steps, in protocol order. StepPrepared is
// the commit point: a crash before it leaves no trace, a crash at or
// after it completes exactly once after recovery.
const (
	StepPrepared Step = iota + 1
	StepCreditApplied
	StepFinalized
)

// String names a step for test output.
func (s Step) String() string {
	switch s {
	case StepPrepared:
		return "prepared"
	case StepCreditApplied:
		return "credit-applied"
	case StepFinalized:
		return "finalized"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// ErrInDoubt marks a cross-shard transfer interrupted after its commit
// point: the money has left the drawer and will reach the recipient —
// Recover (or ResolveInDoubt, or a retry under the same idempotency key)
// completes it. Callers must not retry under a fresh key or ID.
var ErrInDoubt = errors.New("shard: cross-shard transfer interrupted; recovery will resolve it")

// pcRecord is the durable outbox row. Amount is escrowed here between
// the commit point and the credit: it has left the drawer's balance and
// not yet reached the recipient's, and conservation counts it via
// PendingEscrow. The json tags read legacy rows only.
type pcRecord struct {
	GID        string          `json:"gid"`
	TxID       uint64          `json:"txid"`
	From       accounts.ID     `json:"from"`
	To         accounts.ID     `json:"to"`
	Amount     currency.Amount `json:"amount"`
	FromLocked bool            `json:"from_locked,omitempty"`
	Cancelled  bool            `json:"cancelled,omitempty"` // reversal pair of a cancelled transfer
	RUR        []byte          `json:"rur,omitempty"`
	State      string          `json:"state"`
	Date       time.Time       `json:"date"`
}

func gidFor(txID uint64) string { return fmt.Sprintf("%020d", txID) }

// hook invokes the fault-injection hook, if any.
func (l *Ledger) hook(gid string, step Step) error {
	if l.CrashHook == nil {
		return nil
	}
	return l.CrashHook(gid, step)
}

// inDoubtf raises the in-doubt gauge and builds the error that reports
// an abandoned mid-protocol transfer.
func (l *Ledger) inDoubtf(format string, args ...any) error {
	l.markInDoubt()
	return fmt.Errorf(format, args...)
}

// crossTransfer moves funds between accounts on different shards.
// txID pins the transaction ID (0 = allocate): pinning callers record
// the ID durably first so a retry re-drives the same transfer instead
// of minting a second one. cancelled marks the written §5.1 records as
// a cancellation reversal. A spent opts.DedupKey replays the recorded
// transfer — after making sure its credit has landed.
func (l *Ledger) crossTransfer(txID uint64, from, to accounts.ID, amount currency.Amount, opts accounts.TransferOptions, cancelled bool) (*accounts.Transfer, error) {
	fs, ts := l.ring.ShardFor(string(from)), l.ring.ShardFor(string(to))

	// Pre-validate the credit side outside the protocol: existence,
	// open, currency. A recipient that closes between this check and
	// the credit apply is still credited (money must not vanish once
	// the commit point passes); the check just front-loads the common
	// failures before any durable write.
	toAcct, err := l.mgrs[ts].Details(to)
	if err != nil {
		return nil, err
	}
	if toAcct.Closed {
		return nil, fmt.Errorf("%w: %s", accounts.ErrClosed, to)
	}

	rec := &pcRecord{
		TxID:       txID,
		From:       from,
		To:         to,
		Amount:     amount,
		FromLocked: opts.FromLocked,
		Cancelled:  cancelled,
		RUR:        opts.RUR,
		State:      pcCommitted,
		Date:       l.now(),
	}
	// Step 1: the commit point. A failure here is a clean business
	// error — nothing durable happened.
	replay, err := l.commit(fs, rec, toAcct.Currency, opts)
	if err != nil {
		return nil, err
	}
	if replay != nil {
		if err := l.recoverOne(fs, gidFor(replay.TransactionID)); err != nil {
			return nil, fmt.Errorf("shard: resolve keyed transfer %d: %w", replay.TransactionID, err)
		}
		return replay, nil
	}
	if err := l.hook(rec.GID, StepPrepared); err != nil {
		return nil, l.inDoubtf("%w (after commit point): %w", ErrInDoubt, err)
	}

	// Steps 2-3: completion is inevitable. Any failure past this point
	// leaves an outbox row Recover finishes.
	if err := l.applyCredit(ts, rec); err != nil {
		return nil, l.inDoubtf("%w (credit pending): %w", ErrInDoubt, err)
	}
	if err := l.hook(rec.GID, StepCreditApplied); err != nil {
		return nil, l.inDoubtf("%w (after credit): %w", ErrInDoubt, err)
	}
	if err := l.cleanup(fs, rec); err != nil {
		// Both sides are durable; only the outbox row is left, for
		// Recover. That is the operator's to see, not the payer's.
		l.markInDoubt()
	}
	if err := l.hook(rec.GID, StepFinalized); err != nil {
		return nil, l.inDoubtf("%w (after cleanup): %w", ErrInDoubt, err)
	}
	return transferOf(rec), nil
}

// commit is the commit-point transaction on the debit shard: the
// drawer's whole half of the transfer (accounts.DebitTx) plus the
// outbox row. It fills in rec's TxID and GID. A spent opts.DedupKey
// returns the recorded transfer instead and writes nothing.
func (l *Ledger) commit(shardIdx int, rec *pcRecord, toCurrency currency.Code, opts accounts.TransferOptions) (replay *accounts.Transfer, err error) {
	defer l.m2pcPrepare.ObserveSince(time.Now())
	mgr := l.mgrs[shardIdx]
	pinned := rec.TxID
	err = l.stores[shardIdx].Update(func(tx *db.Tx) error {
		replay = nil
		rec.TxID = pinned
		o := opts
		if o.DedupKey != "" {
			mk, err := mgr.GetDedupTx(tx, o.DedupKey)
			if err != nil {
				return err
			}
			if mk != nil {
				replay, err = mgr.GetTransferTx(tx, mk.TxID)
				if err == nil {
					return nil
				}
				if !errors.Is(err, db.ErrNoRecord) {
					return err
				}
				// A marker without its transfer: an older binary pinned
				// the ID before driving its 2PC and never got to (or
				// recovery aborted) the debit. Run under the pinned ID.
				replay, rec.TxID, o.DedupKey = nil, mk.TxID, ""
			}
		}
		if rec.TxID == 0 {
			rec.TxID = l.txSeq.Add(1)
		}
		rec.GID = gidFor(rec.TxID)
		if err := mgr.DebitTx(tx, transferOf(rec), toCurrency, o); err != nil {
			return err
		}
		raw, err := rec.encode()
		if err != nil {
			return err
		}
		return tx.Insert(tablePC, rec.GID, raw)
	})
	return replay, err
}

// applyCredit lands the money on the credit shard: recipient balance,
// recipient-side TRANSACTION row and the TRANSFER record's credit-shard
// copy — one transaction, a no-op when that copy already exists.
func (l *Ledger) applyCredit(shardIdx int, rec *pcRecord) error {
	defer l.m2pcCredit.ObserveSince(time.Now())
	mgr := l.mgrs[shardIdx]
	return l.stores[shardIdx].Update(func(tx *db.Tx) error {
		if _, err := mgr.GetTransferTx(tx, rec.TxID); err == nil {
			return nil // already applied before a crash
		} else if !errors.Is(err, db.ErrNoRecord) {
			return err
		}
		recipient, err := accounts.GetAccountTx(tx, rec.To)
		if err != nil {
			return err
		}
		// A recipient closed after the commit point is still credited:
		// the alternative destroys money. (Closure requires a zero
		// balance, so the credit just reopens a sweep-out obligation.)
		recipient.AvailableBalance = recipient.AvailableBalance.MustAdd(rec.Amount)
		if err := accounts.PutAccountTx(tx, recipient); err != nil {
			return err
		}
		if _, err := mgr.AppendTransactionTx(tx, &accounts.Transaction{
			TransactionID: rec.TxID, AccountID: rec.To, Type: accounts.TxTransfer, Date: rec.Date, Amount: rec.Amount,
		}); err != nil {
			return err
		}
		return mgr.InsertTransferTx(tx, transferOf(rec))
	})
}

// cleanup deletes the outbox row of a transfer whose credit has landed.
// Not awaited: losing it to a crash only means recovery repeats it. A
// "committed" row an older binary left also gets the drawer-side §5.1
// rows that binary deferred to this step.
func (l *Ledger) cleanup(shardIdx int, rec *pcRecord) error {
	defer l.m2pcFinal.ObserveSince(time.Now())
	mgr := l.mgrs[shardIdx]
	return l.stores[shardIdx].UpdateNoWait(func(tx *db.Tx) error {
		if ok, err := tx.Exists(tablePC, rec.GID); err != nil || !ok {
			return err
		}
		if _, err := mgr.GetTransferTx(tx, rec.TxID); errors.Is(err, db.ErrNoRecord) {
			neg, err := rec.Amount.Neg()
			if err != nil {
				return err
			}
			if _, err := mgr.AppendTransactionTx(tx, &accounts.Transaction{
				TransactionID: rec.TxID, AccountID: rec.From, Type: accounts.TxTransfer, Date: rec.Date, Amount: neg,
			}); err != nil {
				return err
			}
			if err := mgr.InsertTransferTx(tx, transferOf(rec)); err != nil {
				return err
			}
		} else if err != nil {
			return err
		}
		return tx.Delete(tablePC, rec.GID)
	})
}

// abortUndo returns a legacy uncommitted row's escrow to the drawer and
// deletes the row.
func (l *Ledger) abortUndo(shardIdx int, rec *pcRecord) error {
	defer l.m2pcDecide.ObserveSince(time.Now())
	return l.stores[shardIdx].Update(func(tx *db.Tx) error {
		if ok, err := tx.Exists(tablePC, rec.GID); err != nil || !ok {
			return err
		}
		drawer, err := accounts.GetAccountTx(tx, rec.From)
		if err != nil {
			return err
		}
		if rec.FromLocked {
			drawer.LockedBalance = drawer.LockedBalance.MustAdd(rec.Amount)
		} else {
			drawer.AvailableBalance = drawer.AvailableBalance.MustAdd(rec.Amount)
		}
		if err := accounts.PutAccountTx(tx, drawer); err != nil {
			return err
		}
		return tx.Delete(tablePC, rec.GID)
	})
}

// transferOf builds the §5.1 TRANSFER record for a pc record. The same
// content is written on both shards (debit copy at the commit point,
// credit copy at apply) so each side's statements see the movement.
func transferOf(rec *pcRecord) *accounts.Transfer {
	return &accounts.Transfer{
		TransactionID:       rec.TxID,
		Date:                rec.Date,
		DrawerAccountID:     rec.From,
		Amount:              rec.Amount,
		RecipientAccountID:  rec.To,
		ResourceUsageRecord: rec.RUR,
		Cancelled:           rec.Cancelled,
	}
}

// Outbox row flags (the second byte of a wire.RowBin1 value).
const (
	pcFromLocked = 1 << 0
	pcCancelled  = 1 << 1
	pcRUR        = 1 << 2 // the RUR follows
)

// pcStates numbers the row states in the bin1 layout.
var pcStates = []string{pcPrepared, pcCommitted, pcAborted}

// encode is the outbox row's bin1 value (GID and transaction ID are
// the entry key's):
//
//	0xB1 flags:u8 state:u8 amount:i64 date:u64 from:str16 to:str16
//	[rur:blob32 — pcRUR only]
func (rec *pcRecord) encode() ([]byte, error) {
	state := slices.Index(pcStates, rec.State)
	if state < 0 {
		return nil, fmt.Errorf("shard: pc record %s has unknown state %q", rec.GID, rec.State)
	}
	var flags byte
	if rec.FromLocked {
		flags |= pcFromLocked
	}
	if rec.Cancelled {
		flags |= pcCancelled
	}
	if len(rec.RUR) > 0 {
		flags |= pcRUR
	}
	var buf bytes.Buffer
	wire.AppendRowHeader(&buf, flags)
	buf.WriteByte(byte(state))
	wire.AppendU64(&buf, uint64(rec.Amount))
	err := errors.Join(
		wire.AppendTime(&buf, rec.Date),
		wire.AppendStr16(&buf, string(rec.From)),
		wire.AppendStr16(&buf, string(rec.To)),
	)
	if flags&pcRUR != 0 {
		err = errors.Join(err, wire.AppendBlob32(&buf, rec.RUR))
	}
	if err != nil {
		return nil, fmt.Errorf("shard: encoding pc record %s: %w", rec.GID, err)
	}
	return buf.Bytes(), nil
}

// decodePC reads the outbox row stored under gid, bin1 or legacy JSON.
func decodePC(gid string, raw []byte) (*pcRecord, error) {
	rec := &pcRecord{}
	err := wire.ReadRow(raw, rec, pcFromLocked|pcCancelled|pcRUR, func(flags byte, br *wire.BinReader) error {
		txID, err := strconv.ParseUint(gid, 10, 64)
		if err != nil || gidFor(txID) != gid {
			return errors.New("key is not a GID")
		}
		rec.GID, rec.TxID = gid, txID
		state := int(br.U8())
		if state >= len(pcStates) {
			return fmt.Errorf("unknown state %d", state)
		}
		rec.State = pcStates[state]
		rec.Amount = currency.Amount(br.U64())
		rec.Date = br.Time()
		rec.From, rec.To = accounts.ID(br.Str16()), accounts.ID(br.Str16())
		if flags&pcRUR != 0 {
			if rec.RUR = br.Blob32(); rec.RUR == nil && br.Err() == nil {
				return errors.New("empty RUR behind its flag")
			}
		}
		rec.FromLocked, rec.Cancelled = flags&pcFromLocked != 0, flags&pcCancelled != 0
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shard: corrupt pc record %s: %w", gid, err)
	}
	return rec, nil
}

// Recover completes every cross-shard transfer a crash left between its
// commit point and its cleanup (and resolves rows of the retired
// protocol an older binary journaled). It runs at Ledger construction
// and is safe to call again at any time; all steps are idempotent.
func (l *Ledger) Recover() error {
	if len(l.stores) == 1 {
		return nil // cross-shard transfers cannot exist
	}
	for i, st := range l.stores {
		var gids []string
		if err := st.Scan(tablePC, func(key string, _ []byte) bool {
			gids = append(gids, key)
			return true
		}); err != nil {
			return err
		}
		for _, gid := range gids {
			if err := l.recoverOne(i, gid); err != nil {
				return fmt.Errorf("shard: recovering transfer %s on shard %d: %w", gid, i, err)
			}
		}
		// Credit markers of the retired protocol: nothing reads them.
		var markers []string
		err := st.Scan(tablePCApplied, func(key string, _ []byte) bool {
			markers = append(markers, key)
			return true
		})
		if err != nil && !errors.Is(err, db.ErrNoTable) {
			return err
		}
		if len(markers) == 0 {
			continue
		}
		err = st.UpdateNoWait(func(tx *db.Tx) error {
			for _, gid := range markers {
				if err := tx.Delete(tablePCApplied, gid); err != nil && !errors.Is(err, db.ErrNoRecord) {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverOne resolves a single pc row found on debit shard i.
func (l *Ledger) recoverOne(i int, gid string) error {
	raw, err := l.stores[i].Get(tablePC, gid)
	if errors.Is(err, db.ErrNoRecord) {
		return nil
	}
	if err != nil {
		return err
	}
	rec, err := decodePC(gid, raw)
	if err != nil {
		return err
	}
	switch rec.State {
	case pcPrepared, pcAborted:
		// Retired protocol, no durable commit decision: presume abort.
		err = l.abortUndo(i, rec)
	case pcCommitted:
		if err = l.applyCredit(l.ring.ShardFor(string(rec.To)), rec); err == nil {
			err = l.cleanup(i, rec)
		}
	default:
		err = fmt.Errorf("shard: pc record %s in unknown state %q", gid, rec.State)
	}
	if err != nil {
		return err
	}
	l.resolveInDoubtMark()
	return nil
}
