// Package settle is the one lifecycle behind GridBank's asynchronous
// settlement pipelines (usage charges, GridHash claims):
//
//	durable spool row → bounded in-memory queue grouped per
//	(shard, drawer) → batch take → settle → finish or park →
//	requeue on a transient fault → recover from the spool at boot
//
// A pipeline package supplies the row type, its spool encoding and three
// decisions — may an incoming row be spooled, what to note about a
// recovered row, how to settle one batch — and the engine owns
// everything else: config defaults, backpressure, the single-transaction
// dedupe-or-revive intake, workers, retries, Drain, Close and the
// telemetry that mirrors the queue.
//
// Contract:
//
//   - Durable intake: rows acknowledged by Submit were journaled to the
//     spool store in ONE transaction and survive a crash; New re-queues
//     every pending row it finds there.
//   - Backpressure: capacity is reserved before any durable write, so
//     concurrent submitters cannot jointly overshoot MaxPending; a batch
//     that would is refused whole with ErrOverloaded.
//   - Dedupe or revive: a row whose key is already spooled is a
//     duplicate, unless the spooled row is parked — then the fresh row
//     replaces it and the item gets another attempt (the operator's
//     retry path after fixing what parked it).
//   - Finish or park: Batch.Finish retires rows in ONE spool
//     transaction; finished rows leave the spool, parked rows stay with
//     their reason and are not retried on their own. Nobody is told a
//     row was retired, so the commit is not awaited: it rides the spool
//     journal's next group flush (next Submit, checkpoint or store
//     Close). A crash before that brings the rows back pending, so
//     Settle must recognise a row the ledger already paid, from the
//     ledger's own evidence, and just Finish it again (CountRedone).
//   - Transient faults: when Settle fails, every row of the batch that
//     did not reach Finish goes back on the queue, so it stays visible
//     to Status and Drain. An ErrAbandoned error (a test's crash hook
//     simulating process death) requeues nothing and stops the pass: the
//     in-memory queue is what a dead process loses, and recovery
//     rebuilds it from the spool.
//   - Drain: waits until nothing is pending in this process (spool
//     removals staged, see Finish). Without workers it runs the passes
//     itself and reports ErrDrainStalled when a full pass settles
//     nothing — only settleable work counts, never a reservation.
package settle

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/db"
	"gridbank/internal/obs"
)

// Row is the engine's view of a pipeline's durable spool record. The
// pipeline's row type implements it on its pointer; the byte layout
// stays entirely the pipeline's (Config.Encode/Decode).
type Row interface {
	// SpoolKey is the row's key in the spool table: its idempotency key.
	SpoolKey() string
	// DrawerID is the account the row draws on. Rows queue per drawer,
	// and a drawer's rows settle on the shard that owns it.
	DrawerID() accounts.ID
	// Parked reports a row a terminal outcome left in the spool.
	Parked() bool
	// Park marks the row parked, with the reason for the operator.
	Park(reason string)
}

// Group is one queue bucket: every pending row drawn on one account.
type Group struct {
	Shard  int
	Drawer accounts.ID
}

// Parked pairs a row with the terminal outcome that parks it.
type Parked[R Row] struct {
	Row    R
	Reason string
}

// ErrAbandoned marks processing cut short by a crash hook.
var ErrAbandoned = errors.New("settle: processing abandoned by crash hook")

// Abandon wraps a crash hook's error so the engine treats it as process
// death rather than a transient fault.
func Abandon(cause error) error { return fmt.Errorf("%w: %v", ErrAbandoned, cause) }

// Hook adapts a pipeline's crash hook (B is its boundary type) for use
// at every boundary: a nil hook never fires, and an error it returns
// comes back marked as an abandon.
func Hook[B any](crash func(b B, id string) error) func(B, string) error {
	return func(b B, id string) error {
		if crash == nil {
			return nil
		}
		if err := crash(b, id); err != nil {
			return Abandon(err)
		}
		return nil
	}
}

// Terminal reports whether err is a verdict on the item — one of the
// pipeline's own verdicts, or a ledger refusal retrying cannot fix —
// so the item is parked rather than retried forever. Fail-stopped
// storage is an instance outage, never a verdict: the row must stay
// queued and settle after restart, even when the failure surfaced
// wrapped in a business error.
func Terminal(err error, verdicts ...error) bool {
	if errors.Is(err, db.ErrStorageFailed) {
		return false
	}
	for _, v := range slices.Concat(verdicts, ledgerVerdicts) {
		if errors.Is(err, v) {
			return true
		}
	}
	return false
}

var ledgerVerdicts = []error{
	accounts.ErrNotFound, accounts.ErrClosed, accounts.ErrCurrencyMismatch,
	accounts.ErrInsufficient, accounts.ErrInsufficientLock, accounts.ErrBadAmount,
}

// Config wires one pipeline to the engine.
type Config[R Row] struct {
	// Name prefixes error text, the fault log line and instrument names
	// ("usage" → usage.queue_depth, usage.inflight, usage.parked,
	// usage.overloaded, usage.cleanup_redone).
	Name string
	// BatchMetric names the histogram of batch sizes under Name.
	BatchMetric string
	// Table is the spool table on Spool.
	Table string
	Spool *db.Store
	// ShardFor places a drawer, fixing its rows' group.
	ShardFor func(accounts.ID) int

	// BatchSize caps one take (default 64); Workers is the number of
	// background settlement goroutines (default 2, negative none);
	// MaxPending bounds intake (default 4096); RetryInterval paces idle
	// re-checks and transient retries (default 25ms).
	BatchSize     int
	Workers       int
	MaxPending    int
	RetryInterval time.Duration

	Log *obs.Logger
	Obs *obs.Registry

	// The pipeline's own error values, so callers keep matching them
	// with errors.Is per package.
	ErrOverloaded, ErrClosed, ErrDrainStalled, ErrDrainTimeout error

	// Encode and Decode are the row's spool value codec, used for every
	// spool write (intake, park) and read (dedupe-or-revive, take-time
	// reload, recovery). Decode gets the entry key too, so the value need
	// not repeat what the key holds. Both required.
	Encode func(row R) ([]byte, error)
	Decode func(key string, raw []byte) (R, error)

	// Admit runs inside the intake transaction for every incoming row
	// whose key is free or parked (parked is then the row it would
	// replace, else the zero R). Returning false counts the row as a
	// duplicate. Nil admits everything.
	Admit func(incoming, parked R) bool
	// Recovered sees every spooled row, pending or parked, during New.
	Recovered func(row R)
	// Spooled fires after the intake transaction with the first accepted
	// row; an error leaves the rows durable but unqueued (crash tests).
	Spooled func(first R) error
	// Settle drives one batch to its outcomes, retiring rows through
	// Batch.Finish. Required.
	Settle func(b *Batch[R]) error
}

// Stats is the lifecycle half of a pipeline's observable state.
type Stats struct {
	Pending    int // reserved + queued + in flight
	QueueDepth int
	InFlight   int
	Failed     int // parked rows
	Duplicates uint64
	Workers    int
	BatchSize  int
	LastError  string
}

// Intake reports one committed Submit.
type Intake struct {
	Accepted   int
	Duplicates int
}

// Engine runs one pipeline's lifecycle. Construct with New, then Start.
type Engine[R Row] struct {
	cfg Config[R]

	mu       sync.Mutex
	queue    map[Group][]string
	queued   int // rows in queue, over all groups
	reserved int // Submit capacity holds not yet spooled/enqueued
	inflight int
	failed   int
	lastErr  string
	closed   bool
	idle     chan struct{} // closed, and replaced, when pending reaches 0 (Drain's wake-up)

	duplicates atomic.Uint64

	// The gauges mirror the mu-guarded state incrementally so scrapes
	// never take the engine lock. Nil handles (no registry) are no-ops.
	mQueue      *obs.Gauge
	mInflight   *obs.Gauge
	mBatch      *obs.Histogram
	mParked     *obs.Counter
	mOverloaded *obs.Counter
	mRedone     *obs.Counter

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds an engine and recovers the spool: pending rows are queued,
// parked rows counted. No worker runs until Start, so the pipeline can
// finish its own recovery (e.g. reseed an allocator from what Recovered
// saw) before anything settles.
func New[R Row](cfg Config[R]) (*Engine[R], error) {
	if cfg.Spool == nil {
		return nil, fmt.Errorf("%s: pipeline requires a spool store", cfg.Name)
	}
	if cfg.Encode == nil || cfg.Decode == nil {
		return nil, fmt.Errorf("%s: pipeline requires a spool row codec", cfg.Name)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0 // synchronous mode: SettleOnce/Drain only
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 25 * time.Millisecond
	}
	e := &Engine[R]{
		cfg:   cfg,
		queue: make(map[Group][]string),
		idle:  make(chan struct{}),
		kick:  make(chan struct{}, cfg.Workers+1), // one wake-up per worker, plus one pending
		stop:  make(chan struct{}),

		mQueue:      cfg.Obs.Gauge(cfg.Name + ".queue_depth"),
		mInflight:   cfg.Obs.Gauge(cfg.Name + ".inflight"),
		mBatch:      cfg.Obs.Histogram(cfg.Name + "." + cfg.BatchMetric),
		mParked:     cfg.Obs.Counter(cfg.Name + ".parked"),
		mOverloaded: cfg.Obs.Counter(cfg.Name + ".overloaded"),
		mRedone:     cfg.Obs.Counter(cfg.Name + ".cleanup_redone"),
	}
	if err := cfg.Spool.EnsureTable(cfg.Table); err != nil {
		return nil, err
	}
	var scanErr error
	err := cfg.Spool.Scan(cfg.Table, func(key string, value []byte) bool {
		row, err := e.decode(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		if cfg.Recovered != nil {
			cfg.Recovered(row)
		}
		if row.Parked() {
			e.failed++
		} else {
			g := e.group(row)
			e.queue[g] = append(e.queue[g], key)
			e.queued++
			e.mQueue.Inc()
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Start launches the settlement workers.
func (e *Engine[R]) Start() {
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
}

// Close stops the workers. Pending rows stay durably spooled and settle
// when a new engine is built over the same store.
func (e *Engine[R]) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	e.wg.Wait()
	return nil
}

func (e *Engine[R]) decode(key string, raw []byte) (R, error) {
	row, err := e.cfg.Decode(key, raw)
	if err != nil {
		return row, fmt.Errorf("%s: corrupt spool row %s: %w", e.cfg.Name, key, err)
	}
	return row, nil
}

func (e *Engine[R]) group(row R) Group {
	d := row.DrawerID()
	return Group{Shard: e.cfg.ShardFor(d), Drawer: d}
}

// releaseLocked drops n rows from the reserved or in-flight count and
// wakes Drain when that leaves nothing pending. Caller holds mu.
func (e *Engine[R]) releaseLocked(count *int, n int) {
	*count -= n
	if e.reserved+e.inflight+e.queued == 0 {
		close(e.idle)
		e.idle = make(chan struct{})
	}
}

// Status reports the engine's observable state.
func (e *Engine[R]) Status() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Pending:    e.reserved + e.inflight + e.queued,
		QueueDepth: e.queued,
		InFlight:   e.inflight,
		Failed:     e.failed,
		Duplicates: e.duplicates.Load(),
		Workers:    e.cfg.Workers,
		BatchSize:  e.cfg.BatchSize,
		LastError:  e.lastErr,
	}
}

// CountDuplicates adds n items the pipeline itself recognised as already
// spooled or already paid (the engine counts the ones intake finds).
func (e *Engine[R]) CountDuplicates(n int) { e.duplicates.Add(uint64(n)) }

// CountRedone adds n rows Settle found already paid on the ledger and
// only finished again: a clean-up a crash lost (see Finish), redone.
func (e *Engine[R]) CountRedone(n int) { e.mRedone.Add(int64(n)) }

// Submit durably spools rows — one spool transaction, one journal flush
// for the whole batch — then queues them and wakes a worker. A nil
// Intake means nothing was written; a non-nil Intake with an error
// means the rows are durable but the Spooled hook cut the call short.
func (e *Engine[R]) Submit(rows []R) (*Intake, error) {
	if len(rows) == 0 {
		return &Intake{}, nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, e.cfg.ErrClosed
	}
	pending := e.reserved + e.inflight + e.queued
	if pending+len(rows) > e.cfg.MaxPending {
		e.mu.Unlock()
		e.mOverloaded.Inc()
		return nil, fmt.Errorf("%w: %d pending + %d offered exceeds bound %d",
			e.cfg.ErrOverloaded, pending, len(rows), e.cfg.MaxPending)
	}
	held := len(rows)
	e.reserved += held
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.releaseLocked(&e.reserved, held)
		e.mu.Unlock()
	}()

	var accepted []R
	var dups, revived int
	err := e.cfg.Spool.Update(func(tx *db.Tx) error {
		accepted, dups, revived = accepted[:0], 0, 0 // Update may retry fn
		for _, row := range rows {
			key := row.SpoolKey()
			var parked R
			revive := false
			raw, err := tx.Get(e.cfg.Table, key)
			switch {
			case err == nil:
				cur, err := e.decode(key, raw)
				if err != nil {
					return err
				}
				if !cur.Parked() {
					dups++
					continue
				}
				parked, revive = cur, true
			case !errors.Is(err, db.ErrNoRecord):
				return err
			}
			if e.cfg.Admit != nil && !e.cfg.Admit(row, parked) {
				dups++
				continue
			}
			out, err := e.cfg.Encode(row)
			if err != nil {
				return err
			}
			if err := tx.Put(e.cfg.Table, key, out); err != nil {
				return err
			}
			accepted = append(accepted, row)
			if revive {
				revived++
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: spooling intake batch: %w", e.cfg.Name, err)
	}
	if revived > 0 {
		e.mu.Lock()
		e.failed -= revived
		e.mu.Unlock()
	}
	e.duplicates.Add(uint64(dups))
	in := &Intake{Accepted: len(accepted), Duplicates: dups}
	if len(accepted) == 0 {
		return in, nil
	}
	if e.cfg.Spooled != nil {
		if err := e.cfg.Spooled(accepted[0]); err != nil {
			// Simulated death after the durable append: recovery will
			// settle the rows; nothing is queued here.
			return in, err
		}
	}
	e.mu.Lock()
	for _, row := range accepted {
		g := e.group(row)
		e.queue[g] = append(e.queue[g], row.SpoolKey())
	}
	// The accepted rows trade their reservation for their queue entry in
	// one step, so Pending never counts them twice.
	e.queued += len(accepted)
	e.reserved -= len(accepted)
	held -= len(accepted)
	e.mu.Unlock()
	e.mQueue.Add(int64(len(accepted)))
	e.kickWorkers()
	return in, nil
}

func (e *Engine[R]) kickWorkers() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

func (e *Engine[R]) worker() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.RetryInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-e.kick:
		case <-t.C:
		}
		if _, err := e.SettleOnce(); err != nil {
			e.mu.Lock()
			e.lastErr = err.Error()
			e.mu.Unlock()
			e.cfg.Log.Warn(e.cfg.Name+" settlement fault", "err", err)
		}
	}
}

// SettleOnce runs one synchronous settlement pass over every group that
// had pending work when the pass started, and reports how many rows
// reached a terminal outcome (finished or parked). Groups a transient
// fault leaves pending are retried on the next pass, not within this
// one.
func (e *Engine[R]) SettleOnce() (int, error) {
	e.mu.Lock()
	groups := make([]Group, 0, len(e.queue))
	for g := range e.queue {
		groups = append(groups, g)
	}
	e.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Shard != groups[j].Shard {
			return groups[i].Shard < groups[j].Shard
		}
		return groups[i].Drawer < groups[j].Drawer
	})
	var done int
	var firstErr error
	for _, g := range groups {
		for {
			keys := e.take(g)
			if len(keys) == 0 {
				break
			}
			n, err := e.settleBatch(g, keys)
			done += n
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break // leave this group for the next pass
			}
		}
		if errors.Is(firstErr, ErrAbandoned) {
			break // simulated death: stop the whole pass
		}
	}
	return done, firstErr
}

// take pops up to BatchSize keys from one group, moving them into the
// in-flight count.
func (e *Engine[R]) take(g Group) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := e.queue[g]
	if len(keys) == 0 {
		delete(e.queue, g)
		return nil
	}
	n := len(keys)
	if n > e.cfg.BatchSize {
		n = e.cfg.BatchSize
	}
	if n == len(keys) {
		delete(e.queue, g)
	} else {
		e.queue[g] = keys[n:]
	}
	e.queued -= n
	e.inflight += n
	e.mQueue.Add(int64(-n))
	e.mInflight.Add(int64(n))
	e.mBatch.Observe(int64(n))
	return keys[:n:n]
}

// requeue returns unfinished keys to the queue (transient faults).
func (e *Engine[R]) requeue(g Group, keys []string) {
	if len(keys) == 0 {
		return
	}
	e.mu.Lock()
	e.queue[g] = append(e.queue[g], keys...)
	e.queued += len(keys)
	e.mu.Unlock()
	e.mQueue.Add(int64(len(keys)))
}

// settleBatch loads a taken batch's rows back from the spool and hands
// them to the pipeline. Keys whose row vanished were finished by an
// earlier generation; rows found parked were parked by an earlier pass.
func (e *Engine[R]) settleBatch(g Group, keys []string) (int, error) {
	defer func() {
		e.mu.Lock()
		e.releaseLocked(&e.inflight, len(keys))
		e.mu.Unlock()
		e.mInflight.Add(int64(-len(keys)))
	}()
	b := &Batch[R]{Group: g, Rows: make([]R, 0, len(keys)), e: e, retired: make(map[string]bool)}
	for _, key := range keys {
		raw, err := e.cfg.Spool.Get(e.cfg.Table, key)
		if errors.Is(err, db.ErrNoRecord) {
			continue
		}
		var row R
		if err == nil {
			row, err = e.decode(key, raw)
		}
		if err != nil {
			e.requeue(g, keys)
			return 0, err
		}
		if !row.Parked() {
			b.Rows = append(b.Rows, row)
		}
	}
	if len(b.Rows) == 0 {
		return 0, nil
	}
	err := e.cfg.Settle(b)
	if err != nil && !errors.Is(err, ErrAbandoned) {
		// Whatever did not reach Finish goes back — the rows the failing
		// step touched and their untouched siblings alike — or it would
		// sit pending in the spool but invisible to Status/Drain until a
		// restart.
		var open []string
		for _, row := range b.Rows {
			if !b.retired[row.SpoolKey()] {
				open = append(open, row.SpoolKey())
			}
		}
		e.requeue(g, open)
	}
	return len(b.retired), err
}

// Batch is one take of pending rows, all drawn on Group.Drawer.
type Batch[R Row] struct {
	Group
	Rows []R

	e       *Engine[R]
	retired map[string]bool
}

// Finish retires rows in ONE spool transaction, staged and not awaited
// (see the contract): finished rows (settled, or recognised as already
// settled) leave the spool; parked rows stay in it with their reason.
// Rows a failed Finish leaves open are requeued when Settle fails.
func (b *Batch[R]) Finish(finished []R, parked []Parked[R]) error {
	if len(finished) == 0 && len(parked) == 0 {
		return nil
	}
	cfg := &b.e.cfg
	err := cfg.Spool.UpdateNoWait(func(tx *db.Tx) error {
		for _, row := range finished {
			if err := tx.Delete(cfg.Table, row.SpoolKey()); err != nil && !errors.Is(err, db.ErrNoRecord) {
				return err
			}
		}
		for _, p := range parked {
			p.Row.Park(p.Reason)
			raw, err := cfg.Encode(p.Row)
			if err != nil {
				return err
			}
			if err := tx.Put(cfg.Table, p.Row.SpoolKey(), raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: spool cleanup: %w", cfg.Name, err)
	}
	for _, row := range finished {
		b.retired[row.SpoolKey()] = true
	}
	for _, p := range parked {
		b.retired[p.Row.SpoolKey()] = true
	}
	if len(parked) > 0 {
		b.e.mu.Lock()
		b.e.failed += len(parked)
		b.e.mu.Unlock()
		b.e.mParked.Add(int64(len(parked)))
	}
	return nil
}

// Drain blocks until every pending row reaches a terminal outcome, or
// the timeout elapses (default 30s). With workers it kicks them and
// sleeps until the count reaches zero; without, it runs the passes.
func (e *Engine[R]) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for {
		e.mu.Lock()
		before := e.inflight + e.queued
		pending := e.reserved + before
		closed := e.closed
		idle := e.idle
		e.mu.Unlock()
		switch {
		case closed:
			return e.cfg.ErrClosed
		case pending == 0:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("%w: %d still pending", e.cfg.ErrDrainTimeout, pending)
		case e.cfg.Workers > 0:
			e.kickWorkers()
			select {
			case <-idle:
			case <-e.stop:
			case <-time.After(time.Until(deadline)):
			}
			continue
		}
		n, err := e.SettleOnce()
		if err != nil {
			return err
		}
		if n == 0 {
			// Only settleable work counts toward a stall verdict: work
			// the pass could have taken and that is still there. A
			// concurrent Submit's reservation — or the rows it queued
			// while the pass ran — is progress another goroutine is
			// making, not work this loop failed on.
			e.mu.Lock()
			after := e.inflight + e.queued
			e.mu.Unlock()
			if before > 0 && after > 0 {
				return fmt.Errorf("%w: %d pending", e.cfg.ErrDrainStalled, after)
			}
			time.Sleep(time.Millisecond) // nothing to take yet: wait the reservations out
		}
	}
}
