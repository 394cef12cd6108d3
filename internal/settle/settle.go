// Package settle is the one lifecycle behind GridBank's asynchronous
// settlement pipelines (usage charges, GridHash claims):
//
//	durable spool row → bounded in-memory queue grouped per
//	(shard, drawer) → batch take → settle → finish or park →
//	requeue on a transient fault → recover from the spool at boot
//
// A pipeline package supplies the row type, its spool encoding and three
// decisions — may an incoming row be spooled (or merged into the row its
// key already holds), what to note about a recovered row, how to settle
// one batch — and the engine owns everything else: config defaults,
// backpressure, the single-transaction dedupe-merge-or-revive intake,
// compare-and-delete retirement, workers, retries, Drain, Close and the
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
//   - Dedupe, merge or revive: a row whose key is already spooled is a
//     duplicate, unless the spooled row is parked — then the fresh row
//     replaces it and the item gets another attempt (the operator's
//     retry path after fixing what parked it) — or Admit merges the
//     fresh row into the pending one: the key is overwritten in the same
//     intake transaction and, being queued or in flight already, is not
//     queued a second time.
//   - Finish or park, compare first: Batch.Finish retires rows in ONE
//     spool transaction, and only rows whose stored bytes are still the
//     ones the batch loaded; a row a merge superseded while it was in
//     flight goes back on the queue, never lost. Finished rows leave the
//     spool, parked rows stay with their reason and are not retried on
//     their own. Nobody is told a
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
	"bytes"
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

	// Admit runs inside the intake transaction for every incoming row,
	// with the row its key holds (pending or parked), or the zero R when
	// the key is free. Returning false counts the row as a duplicate;
	// returning true writes incoming — over a parked row that revives
	// it, over a pending one that merges into it, so Admit must leave in
	// incoming everything the pending row still owes. Nil admits free and
	// parked keys and refuses pending ones.
	Admit func(incoming, cur R) bool
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

	var accepted, fresh []R
	var dups, revived int
	err := e.cfg.Spool.Update(func(tx *db.Tx) error {
		accepted, fresh, dups, revived = accepted[:0], fresh[:0], 0, 0 // Update may retry fn
		for _, row := range rows {
			key := row.SpoolKey()
			var cur R
			found, pending := false, false
			raw, err := tx.Get(e.cfg.Table, key)
			switch {
			case err == nil:
				if cur, err = e.decode(key, raw); err != nil {
					return err
				}
				found, pending = true, !cur.Parked()
			case !errors.Is(err, db.ErrNoRecord):
				return err
			}
			if e.cfg.Admit == nil && pending || e.cfg.Admit != nil && !e.cfg.Admit(row, cur) {
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
			if !pending {
				fresh = append(fresh, row) // a merged key is queued or in flight already
			}
			if found && !pending {
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
	for _, row := range fresh {
		g := e.group(row)
		e.queue[g] = append(e.queue[g], row.SpoolKey())
	}
	// The queued rows trade their reservation for their queue entry in
	// one step, so Pending never counts them twice.
	e.queued += len(fresh)
	e.reserved -= len(fresh)
	held -= len(fresh)
	e.mu.Unlock()
	e.mQueue.Add(int64(len(fresh)))
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
	b := &Batch[R]{Group: g, Rows: make([]R, 0, len(keys)), e: e,
		loaded: make(map[string][]byte, len(keys)), retired: make(map[string]bool), superseded: make(map[string]bool)}
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
			b.loaded[key] = raw
		}
	}
	if len(b.Rows) == 0 {
		return 0, nil
	}
	err := e.cfg.Settle(b)
	if errors.Is(err, ErrAbandoned) {
		return b.done, err
	}
	// A superseded row goes back for its merged claims; on a fault, so
	// does whatever did not reach Finish — the rows the failing step
	// touched and their untouched siblings alike — or it would sit
	// pending in the spool but invisible to Status/Drain until a restart.
	var open []string
	for _, row := range b.Rows {
		if key := row.SpoolKey(); err != nil && !b.retired[key] || b.superseded[key] {
			open = append(open, key)
		}
	}
	e.requeue(g, open)
	return b.done, err
}

// Batch is one take of pending rows, all drawn on Group.Drawer.
type Batch[R Row] struct {
	Group
	Rows []R

	e          *Engine[R]
	loaded     map[string][]byte // the stored value each row was read from
	retired    map[string]bool   // reached Finish: retired, or superseded
	superseded map[string]bool   // a merge rewrote the row in flight
	done       int
}

// Finish retires rows in ONE spool transaction, staged and not awaited
// (see the contract): finished rows (settled, or recognised as already
// settled) leave the spool; parked rows stay in it with their reason.
// Compare first: a row whose stored bytes are no longer the ones this
// batch loaded was superseded by a merge while in flight, so it is left
// as stored and queued again (Superseded reports it). Rows a failed
// Finish leaves open are requeued when Settle fails.
func (b *Batch[R]) Finish(finished []R, parked []Parked[R]) error {
	if len(finished) == 0 && len(parked) == 0 {
		return nil
	}
	cfg := &b.e.cfg
	var stale []string
	err := cfg.Spool.UpdateNoWait(func(tx *db.Tx) error {
		stale = stale[:0] // Update may retry fn
		// current reports whether the spool still holds row as loaded.
		current := func(row R) (bool, error) {
			key := row.SpoolKey()
			raw, err := tx.Get(cfg.Table, key)
			if errors.Is(err, db.ErrNoRecord) {
				return false, nil // finished by an earlier generation
			}
			if err == nil && !bytes.Equal(raw, b.loaded[key]) {
				stale = append(stale, key)
				return false, nil
			}
			return err == nil, err
		}
		for _, row := range finished {
			ok, err := current(row)
			if ok {
				err = tx.Delete(cfg.Table, row.SpoolKey())
			}
			if err != nil {
				return err
			}
		}
		for _, p := range parked {
			if ok, err := current(p.Row); !ok {
				if err != nil {
					return err
				}
				continue
			}
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
	for _, key := range stale {
		b.superseded[key] = true
	}
	for _, row := range finished {
		b.retire(row.SpoolKey())
	}
	newlyParked := 0
	for _, p := range parked {
		if b.retire(p.Row.SpoolKey()) {
			newlyParked++
		}
	}
	if newlyParked > 0 {
		b.e.mu.Lock()
		b.e.failed += newlyParked
		b.e.mu.Unlock()
		b.e.mParked.Add(int64(newlyParked))
	}
	return nil
}

// retire closes key for this batch and reports whether Finish retired it
// (false: superseded).
func (b *Batch[R]) retire(key string) bool {
	b.retired[key] = true
	if b.superseded[key] {
		return false
	}
	b.done++
	return true
}

// Superseded reports whether Finish found row rewritten by a merge while
// the batch held it: the row stayed in the spool and is queued again, so
// whatever the pipeline counts per retired row is not counted for it.
func (b *Batch[R]) Superseded(row R) bool { return b.superseded[row.SpoolKey()] }

// Rewrite replaces one of the batch's rows in its own spool transaction
// (a write-ahead pin, say): edit gets the stored row and reports whether
// it changed it. Finish then compares against what Rewrite wrote, so the
// pipeline's own write never reads as a merge.
func (b *Batch[R]) Rewrite(row R, edit func(cur R) bool) (R, error) {
	cfg := &b.e.cfg
	key := row.SpoolKey()
	var cur R
	var out []byte
	err := cfg.Spool.Update(func(tx *db.Tx) error {
		out = nil // Update may retry fn
		raw, err := tx.Get(cfg.Table, key)
		if err != nil {
			return err
		}
		if cur, err = b.e.decode(key, raw); err != nil || !edit(cur) {
			return err
		}
		if out, err = cfg.Encode(cur); err != nil {
			return err
		}
		return tx.Put(cfg.Table, key, out)
	})
	if err == nil && out != nil {
		b.loaded[key] = out
	}
	return cur, err
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
