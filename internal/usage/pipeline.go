package usage

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/rur"
	"gridbank/internal/settle"
	"gridbank/internal/shard"
)

// Spool-side and shard-side table names.
const (
	tableSpool   = "usage_spool"
	tableSettled = "usage_settled"
)

// Config configures a Pipeline.
type Config struct {
	// Ledger is the settlement target. Required. Must implement
	// CrossShardLedger when it spans more than one shard.
	Ledger Ledger
	// Spool is the intake store. Required. Give it a WAL-backed journal
	// for durable intake; the pipeline recovers pending charges from it
	// at construction.
	Spool *db.Store
	// BatchSize caps how many charges coalesce into one ledger
	// transaction (default 64).
	BatchSize int
	// Workers is the number of background settlement goroutines
	// (default 2). Workers < 0 starts none: settlement then runs only
	// through SettleOnce/Drain — the deterministic mode crash tests use.
	Workers int
	// MaxPending bounds the intake queue: a Submit that would push the
	// pending count past it fails with ErrOverloaded (default 4096).
	MaxPending int
	// RetryInterval is how often idle workers re-check for work missed
	// by kicks, and the pace of transient-failure retries (default 25ms).
	RetryInterval time.Duration
	// Now supplies timestamps; defaults to time.Now.
	Now func() time.Time
	// Log records transient settlement faults; nil discards them.
	Log *obs.Logger
	// Obs names the pipeline's instruments (usage.queue_depth,
	// usage.inflight, usage.batch_size, usage.settled, usage.parked,
	// usage.overloaded, usage.cleanup_redone). Nil leaves telemetry off.
	Obs *obs.Registry
	// CrashHook fires after every durable settlement step with the
	// boundary and a representative charge ID; returning an error
	// abandons processing at that point (simulated process death).
	// Test instrumentation only.
	CrashHook func(b Boundary, chargeID string) error
}

// Pipeline is the batched asynchronous usage settlement: pricing and
// validation at intake, exactly-once markers, the one-transaction
// same-shard batch and the pinned cross-shard path. The spool, queue,
// worker, retry and Drain lifecycle is internal/settle's. Construct
// with New — which also runs crash recovery — and Close when done.
// Constructing the pipeline must happen before the ledger serves
// traffic, so recovered transaction-ID pins reseed the allocator ahead
// of any fresh allocation.
type Pipeline struct {
	led   Ledger
	cross CrossShardLedger // nil when the ledger cannot cross shards
	spool *db.Store
	now   func() time.Time
	hook  func(b Boundary, chargeID string) error // never nil; an error abandons processing
	eng   *settle.Engine[*spoolRow]

	settled    atomic.Uint64
	rejected   atomic.Uint64
	batches    atomic.Uint64
	crossShard atomic.Uint64
	mSettled   *obs.Counter
}

// New builds a pipeline over the ledger and spool store, recovers any
// charges a crash left pending (re-queueing them and reseeding the
// ledger's transaction-ID allocator above every pinned ID, so a fresh
// transfer can never collide with a pinned-but-unfinished settlement),
// and starts the settlement workers.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Ledger == nil {
		return nil, errors.New("usage: pipeline requires a ledger")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cross, _ := cfg.Ledger.(CrossShardLedger)
	if cfg.Ledger.Shards() > 1 && cross == nil {
		return nil, errors.New("usage: a multi-shard ledger must implement CrossShardLedger")
	}
	p := &Pipeline{
		led:      cfg.Ledger,
		cross:    cross,
		spool:    cfg.Spool,
		now:      cfg.Now,
		hook:     settle.Hook(cfg.CrashHook),
		mSettled: cfg.Obs.Counter("usage.settled"),
	}
	var maxPin uint64
	eng, err := settle.New(settle.Config[*spoolRow]{
		Name:          "usage",
		BatchMetric:   "batch_size",
		Table:         tableSpool,
		Spool:         cfg.Spool,
		ShardFor:      cfg.Ledger.ShardFor,
		BatchSize:     cfg.BatchSize,
		Workers:       cfg.Workers,
		MaxPending:    cfg.MaxPending,
		RetryInterval: cfg.RetryInterval,
		Log:           cfg.Log,
		Obs:           cfg.Obs,

		ErrOverloaded:   ErrOverloaded,
		ErrClosed:       ErrClosed,
		ErrDrainStalled: ErrDrainStalled,
		ErrDrainTimeout: ErrDrainTimeout,
		Encode:          encodeSpoolRow,
		Decode:          decodeSpoolRow,

		Admit: p.admit,
		Recovered: func(row *spoolRow) {
			if row.PinTxID > maxPin {
				maxPin = row.PinTxID
			}
		},
		Spooled: func(first *spoolRow) error { return p.hook(BoundarySpooled, first.ID) },
		Settle:  p.settleGroup,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.led.Shards(); i++ {
		if err := p.led.ShardStore(i).EnsureTable(tableSettled); err != nil {
			return nil, err
		}
	}
	if maxPin > 0 {
		if cross == nil {
			return nil, fmt.Errorf("usage: spool holds pinned transaction IDs (max %d) but the ledger cannot cross shards", maxPin)
		}
		cross.SeedTxIDsAbove(maxPin)
	}
	p.eng = eng
	eng.Start()
	return p, nil
}

// Close stops the workers. Pending charges stay durably spooled and
// settle when a new pipeline is constructed over the same stores.
func (p *Pipeline) Close() error { return p.eng.Close() }

// Status reports the pipeline's observable state.
func (p *Pipeline) Status() *Stats {
	st := p.eng.Status()
	return &Stats{
		Pending:    st.Pending,
		QueueDepth: st.QueueDepth,
		InFlight:   st.InFlight,
		Failed:     st.Failed,
		Settled:    p.settled.Load(),
		Duplicates: st.Duplicates,
		Rejected:   p.rejected.Load(),
		Batches:    p.batches.Load(),
		CrossShard: p.crossShard.Load(),
		Workers:    st.Workers,
		BatchSize:  st.BatchSize,
		LastError:  st.LastError,
	}
}

// Submit prices and durably spools a batch of usage records for
// asynchronous settlement. Malformed submissions come back in
// SubmitResult.Rejected (terminal — resubmitting the same bytes cannot
// succeed); duplicates of spooled or already-settled IDs are counted
// and skipped; ErrOverloaded refuses the whole batch when settlement
// lags intake past the configured bound. A nil error means every
// non-rejected submission is journaled and will settle exactly once.
func (p *Pipeline) Submit(batch []Submission) (*SubmitResult, error) {
	res := &SubmitResult{}
	rows := make([]*spoolRow, 0, len(batch))
	for _, sub := range batch {
		row, reason := p.intakeRow(sub)
		if reason != "" {
			p.rejected.Add(1)
			res.Rejected = append(res.Rejected, Rejection{ID: sub.ID, Reason: reason})
			continue
		}
		rows = append(rows, row)
	}
	in, err := p.eng.Submit(rows)
	if in == nil {
		return nil, err
	}
	res.Accepted, res.Duplicates = in.Accepted, in.Duplicates
	return res, err
}

// admit decides, inside the intake transaction, whether an incoming
// charge may be spooled. A charge still pending is a duplicate: charges
// never merge. A charge parked failed never settled (no marker), so a
// fresh submission of the same ID resurrects it — keeping an allocated
// pin: the failed attempt never moved money, and re-driving under the
// same ID keeps the exactly-once bookkeeping intact. A charge whose
// settled marker exists is a duplicate.
func (p *Pipeline) admit(incoming, cur *spoolRow) bool {
	if cur != nil {
		if !cur.Parked() {
			return false
		}
		incoming.PinTxID = cur.PinTxID
	}
	return !p.alreadySettled(incoming)
}

// intakeRow prices and validates one submission. A non-empty reason
// rejects it terminally.
func (p *Pipeline) intakeRow(sub Submission) (*spoolRow, string) {
	switch {
	case sub.ID == "":
		return nil, "empty submission ID"
	case sub.Drawer == "":
		return nil, "missing drawer account"
	case sub.Recipient == "":
		return nil, "missing recipient account"
	case sub.Drawer == sub.Recipient:
		return nil, "drawer and recipient are the same account"
	case sub.Rates == nil:
		return nil, "missing rate card"
	}
	rec := sub.Record
	if rec == nil {
		var err error
		if rec, err = rur.Decode(sub.RUR); err != nil {
			return nil, fmt.Sprintf("malformed RUR: %v", err)
		}
	}
	st, err := rur.Price(rec, sub.Rates)
	if err != nil {
		return nil, fmt.Sprintf("pricing failed: %v", err)
	}
	return &spoolRow{
		ID:        sub.ID,
		Drawer:    sub.Drawer,
		Recipient: sub.Recipient,
		Amount:    st.Total,
		RUR:       sub.RUR,
		State:     statePending,
		Enqueued:  p.now(),
	}, ""
}

// alreadySettled reports whether a settled marker exists for the row.
func (p *Pipeline) alreadySettled(row *spoolRow) bool {
	st := p.led.ShardStore(p.led.ShardFor(row.Drawer))
	_, err := st.Get(tableSettled, row.ID)
	return err == nil
}

// SettleOnce runs one synchronous settlement pass over every group that
// had pending work when the pass started, and reports how many charges
// reached a terminal outcome (clean-ups redone count as settled work
// for progress accounting). Groups a transient fault leaves pending are
// retried on the next pass, not within this one.
func (p *Pipeline) SettleOnce() (int, error) { return p.eng.SettleOnce() }

// Drain blocks until every pending charge reaches a terminal outcome,
// or the timeout elapses. With background workers it kicks and waits;
// in synchronous mode (Workers < 0) it runs settlement passes itself
// and reports ErrDrainStalled if a full pass makes no progress.
func (p *Pipeline) Drain(timeout time.Duration) (*Stats, error) {
	err := p.eng.Drain(timeout)
	return p.Status(), err
}

// settleGroup settles one batch of charges drawn from a single account:
// same-shard and zero-amount ones (a marker alone settles those) in one
// ledger transaction, the cross-shard ones one pinned transfer each.
func (p *Pipeline) settleGroup(b *settle.Batch[*spoolRow]) error {
	var same, cross []*spoolRow
	for _, row := range b.Rows {
		if p.led.ShardFor(row.Recipient) == b.Shard || row.Amount.IsZero() {
			same = append(same, row)
		} else {
			cross = append(cross, row)
		}
	}
	if err := p.settleSameShard(b, same); err != nil {
		return err
	}
	for _, row := range cross {
		if err := p.settleCross(b, row); err != nil {
			return err
		}
	}
	return nil
}

// failure is a charge parked by a terminal business outcome.
type failure = settle.Parked[*spoolRow]

// settleSameShard applies a batch of same-shard charges in ONE ledger
// transaction: for every charge the drawer debit, recipient credit,
// both §5.1 TRANSACTION rows, the TRANSFER record carrying the RUR, and
// the exactly-once marker — all atomic, riding one group-committed
// journal flush. This is where per-RUR fsyncs amortize away.
func (p *Pipeline) settleSameShard(b *settle.Batch[*spoolRow], rows []*spoolRow) error {
	if len(rows) == 0 {
		return nil
	}
	mgr := p.led.ShardManager(b.Shard)
	st := p.led.ShardStore(b.Shard)
	now := p.now()
	var settledRows, dupRows []*spoolRow
	var failures []failure
	err := st.Update(func(tx *db.Tx) error {
		// The closure may rerun on conflict: reset per-attempt state.
		settledRows, dupRows, failures = settledRows[:0], dupRows[:0], failures[:0]
		var drawer *accounts.Account
		var drawerErr string
		recips := make(map[accounts.ID]*accounts.Account)
		for i := range rows {
			row := rows[i]
			ok, err := tx.Exists(tableSettled, row.ID)
			if err != nil {
				return err
			}
			if ok {
				dupRows = append(dupRows, row)
				continue
			}
			if row.Amount.IsZero() {
				// Nothing to move; the marker alone settles it.
				if err := insertMarker(tx, row.ID, 0); err != nil {
					return err
				}
				settledRows = append(settledRows, row)
				continue
			}
			if drawer == nil && drawerErr == "" {
				a, err := accounts.GetAccountTx(tx, b.Drawer)
				switch {
				case errors.Is(err, db.ErrNoRecord):
					drawerErr = fmt.Sprintf("drawer %s not found", b.Drawer)
				case err != nil:
					return err
				case a.Closed:
					drawerErr = fmt.Sprintf("drawer %s is closed", b.Drawer)
				default:
					drawer = a
				}
			}
			if drawerErr != "" {
				failures = append(failures, failure{Row: row, Reason: drawerErr})
				continue
			}
			rec, seen := recips[row.Recipient]
			if !seen {
				a, err := accounts.GetAccountTx(tx, row.Recipient)
				if errors.Is(err, db.ErrNoRecord) {
					failures = append(failures, failure{Row: row, Reason: fmt.Sprintf("recipient %s not found", row.Recipient)})
					continue
				}
				if err != nil {
					return err
				}
				rec = a
				recips[row.Recipient] = a
			}
			switch {
			case rec.Closed:
				failures = append(failures, failure{Row: row, Reason: fmt.Sprintf("recipient %s is closed", row.Recipient)})
				continue
			case rec.Currency != drawer.Currency:
				failures = append(failures, failure{Row: row, Reason: fmt.Sprintf("currency mismatch: drawer %s, recipient %s", drawer.Currency, rec.Currency)})
				continue
			case drawer.Spendable().Cmp(row.Amount) < 0:
				failures = append(failures, failure{Row: row, Reason: fmt.Sprintf("insufficient funds: spendable %s < %s", drawer.Spendable(), row.Amount)})
				continue
			}
			drawer.AvailableBalance = drawer.AvailableBalance.MustSub(row.Amount)
			rec.AvailableBalance = rec.AvailableBalance.MustAdd(row.Amount)
			neg, err := row.Amount.Neg()
			if err != nil {
				return err
			}
			txID, err := mgr.AppendTransactionTx(tx, &accounts.Transaction{
				AccountID: b.Drawer, Type: accounts.TxTransfer, Date: now, Amount: neg,
			})
			if err != nil {
				return err
			}
			if _, err := mgr.AppendTransactionTx(tx, &accounts.Transaction{
				TransactionID: txID, AccountID: row.Recipient, Type: accounts.TxTransfer, Date: now, Amount: row.Amount,
			}); err != nil {
				return err
			}
			if err := mgr.InsertTransferTx(tx, &accounts.Transfer{
				TransactionID:       txID,
				Date:                now,
				DrawerAccountID:     b.Drawer,
				Amount:              row.Amount,
				RecipientAccountID:  row.Recipient,
				ResourceUsageRecord: row.RUR,
			}); err != nil {
				return err
			}
			if err := insertMarker(tx, row.ID, txID); err != nil {
				return err
			}
			settledRows = append(settledRows, row)
		}
		if drawer != nil {
			if err := accounts.PutAccountTx(tx, drawer); err != nil {
				return err
			}
		}
		for _, rec := range recips {
			if err := accounts.PutAccountTx(tx, rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("usage: settling batch on shard %d: %w", b.Shard, err)
	}
	moved := 0
	for i := range settledRows {
		if !settledRows[i].Amount.IsZero() {
			moved++
		}
	}
	if moved > 0 {
		p.batches.Add(1)
	}
	p.settled.Add(uint64(len(settledRows)))
	p.mSettled.Add(int64(len(settledRows)))
	p.eng.CountRedone(len(dupRows))
	if err := p.hook(BoundarySettled, rows[0].ID); err != nil {
		return err
	}
	finished := make([]*spoolRow, 0, len(settledRows)+len(dupRows))
	finished = append(append(finished, settledRows...), dupRows...)
	if err := b.Finish(finished, failures); err != nil {
		return err
	}
	return p.hook(BoundaryCleaned, rows[0].ID)
}

func insertMarker(tx *db.Tx, id string, txID uint64) error {
	raw, err := json.Marshal(settledMarker{ID: id, TxID: txID})
	if err != nil {
		return err
	}
	return tx.Insert(tableSettled, id, raw)
}

// mark writes a cross-shard charge's settled marker, one transaction on
// the drawer's shard, and moves the counters with it: the charge counts
// as settled only when this attempt inserted the marker — a retry that
// finds it already present only redoes the clean-up, so the counters
// stay exact across transient-failure retries.
func (p *Pipeline) mark(shard int, row *spoolRow) error {
	inserted := false
	err := p.led.ShardStore(shard).Update(func(tx *db.Tx) error {
		inserted = false
		if ok, err := tx.Exists(tableSettled, row.ID); err != nil || ok {
			return err
		}
		if err := insertMarker(tx, row.ID, row.PinTxID); err != nil {
			return err
		}
		inserted = true
		return nil
	})
	if err != nil {
		return fmt.Errorf("usage: marking charge %s: %w", row.ID, err)
	}
	if !inserted {
		p.eng.CountRedone(1)
		return nil
	}
	p.settled.Add(1)
	p.mSettled.Inc()
	p.crossShard.Add(1)
	return nil
}

// settleCross settles one cross-shard charge through the 2PC ledger
// under a write-ahead pinned transaction ID. Marker and money movement
// cannot share a transaction across stores, so exactly-once comes from
// the pin: the ID is durable in the spool row before the transfer runs,
// and a retry first resolves the pinned transfer's 2PC state and checks
// whether it already landed before re-driving it.
func (p *Pipeline) settleCross(b *settle.Batch[*spoolRow], row *spoolRow) error {
	// Already marked settled (crash between marker and cleanup)?
	if p.alreadySettled(row) {
		p.eng.CountRedone(1)
		return b.Finish([]*spoolRow{row}, nil)
	}
	// Pin the transaction ID write-ahead (idempotent across retries:
	// once pinned, the same ID is always reused).
	if row.PinTxID == 0 {
		pin := p.cross.AllocTxID()
		cur, err := b.Rewrite(row, func(cur *spoolRow) bool {
			if cur.PinTxID != 0 {
				return false // adopt an existing pin, never replace
			}
			cur.PinTxID = pin
			return true
		})
		if err != nil {
			return fmt.Errorf("usage: pinning charge %s: %w", row.ID, err)
		}
		row.PinTxID = cur.PinTxID
		if err := p.hook(BoundaryPinned, row.ID); err != nil {
			return err
		}
	}

	// Resolve any 2PC state a previous attempt left in doubt, then
	// check whether the pinned transfer already completed.
	if err := p.cross.ResolveInDoubt(b.Shard, row.PinTxID); err != nil {
		return fmt.Errorf("usage: resolving pinned transfer %d: %w", row.PinTxID, err)
	}
	if _, err := p.cross.GetTransfer(row.PinTxID); err != nil {
		if !errors.Is(err, accounts.ErrNoSuchTransfer) {
			return err
		}
		_, terr := p.cross.TransferWithID(row.PinTxID, row.Drawer, row.Recipient, row.Amount,
			accounts.TransferOptions{RUR: row.RUR})
		switch {
		case terr == nil:
		case errors.Is(terr, shard.ErrInDoubt):
			// Durable but unfinished: the next pass resolves it.
			return fmt.Errorf("usage: charge %s in doubt: %w", row.ID, terr)
		case settle.Terminal(terr): // a verdict on the charge: park it
			return b.Finish(nil, []failure{{Row: row, Reason: terr.Error()}})
		default:
			return fmt.Errorf("usage: settling charge %s: %w", row.ID, terr)
		}
	}
	if err := p.hook(BoundarySettled, row.ID); err != nil {
		return err
	}

	// Marker on the drawer's shard (the counters move with it, not with
	// the transfer), then cleanup.
	if err := p.mark(b.Shard, row); err != nil {
		return err
	}
	if err := p.hook(BoundaryMarked, row.ID); err != nil {
		return err
	}
	if err := b.Finish([]*spoolRow{row}, nil); err != nil {
		return err
	}
	return p.hook(BoundaryCleaned, row.ID)
}
