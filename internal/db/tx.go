package db

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Tx is a read-write transaction with optimistic concurrency control.
// Writes are buffered and become visible (and durable, if the store has
// a journal) only at Commit. A Tx holds no locks while it runs: reads
// take the touched stripe's read lock only for the moment of the lookup
// and are recorded in a read set. Commit locks the touched stripes (in
// a global sorted order), revalidates every read against current state,
// journals, applies, and releases. If a concurrent commit invalidated
// any read, Commit fails with ErrConflict and the transaction's effects
// are discarded — Update retries automatically, which restores the full
// serializability an accounting system needs (the paper's §3.4 fund
// locking is only sound if balance check and debit are atomic).
//
// Reads are repeatable: a key read twice returns the same value both
// times, even if a concurrent transaction committed in between.
type Tx struct {
	s    *Store
	done bool
	// noWait: Commit stages the batch in the journal but does not wait
	// for it to become durable (UpdateNoWait).
	noWait bool
	// staged mutations, applied in order at commit
	ops []txOp
	// overlay of staged state per table: key -> value (nil = deleted)
	overlay map[string]map[string]*[]byte
	// read set: key -> observed row pointer (nil = observed missing)
	reads map[string]map[string]*row
	// secondary-index reads to revalidate (phantom protection for
	// uniqueness checks like accounts-by-certificate)
	ixReads []ixRead
	// whole-table scans: table -> version at scan time
	scans map[string]uint64
}

type txOp struct {
	op    Op
	table string
	key   string
	value []byte
}

type ixRead struct {
	table, index, key string
	result            []string // raw store result, pre-overlay, sorted
}

// Begin starts a transaction. Callers must finish it with Commit or
// Rollback. Transactions run lock-free; conflicting commits are detected
// at Commit and reported as ErrConflict.
func (s *Store) Begin() (*Tx, error) {
	if err := s.failedErr(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	return &Tx{s: s, overlay: make(map[string]map[string]*[]byte)}, nil
}

// Update runs fn inside a transaction, committing if it returns nil and
// rolling back otherwise. Conflicts with concurrent transactions are
// retried until the transaction commits or fails for a real reason, so
// fn must be a pure function of the transaction (it may run more than
// once).
func (s *Store) Update(fn func(tx *Tx) error) error {
	return s.update(fn, false)
}

// UpdateNoWait is Update without the durability wait: the transaction's
// batch is staged in the journal (its position fixed, its effects
// applied to memory and published) and becomes durable with the
// journal's next group flush, which the next awaited commit or Close
// drives. A crash before that flush loses the batch, so it is only for
// idempotent clean-up the caller's recovery redoes when it finds the
// work undone — never for anything a caller is told has happened: the
// two cross-shard outbox clean-ups (shard) and settle.Batch.Finish (a
// lost delete is redone from the ledger's payment evidence, a lost park
// is a verdict recomputed from spool + ledger). A flush failure still
// fail-stops the store: the flush's leader is an awaited commit, which
// poisons the store on the group's error.
func (s *Store) UpdateNoWait(fn func(tx *Tx) error) error {
	return s.update(fn, true)
}

func (s *Store) update(fn func(tx *Tx) error, noWait bool) error {
	for attempt := 0; ; attempt++ {
		tx, err := s.Begin()
		if err != nil {
			return err
		}
		tx.noWait = noWait
		err = fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Rollback()
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
		s.mRetries.Inc()
		// Contended: yield so the winning committer finishes, with a
		// touch of backoff once the key is clearly hot.
		if attempt < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(attempt) * time.Microsecond)
		}
	}
}

// recordRead notes that this transaction observed r (or a miss, r==nil)
// under table/key. First observation wins: that is the value the
// transaction's logic acted on.
func (tx *Tx) recordRead(tableName, key string, r *row) {
	if tx.reads == nil {
		tx.reads = make(map[string]map[string]*row)
	}
	byKey, ok := tx.reads[tableName]
	if !ok {
		byKey = make(map[string]*row)
		tx.reads[tableName] = byKey
	}
	if _, seen := byKey[key]; !seen {
		byKey[key] = r
	}
}

// Get reads a record, observing the transaction's own uncommitted writes.
// The returned slice is a defensive copy.
func (tx *Tx) Get(tableName, key string) ([]byte, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	if ov, ok := tx.overlay[tableName]; ok {
		if vp, ok := ov[key]; ok {
			if vp == nil {
				return nil, fmt.Errorf("%w: %s/%s", ErrNoRecord, tableName, key)
			}
			return *vp, nil
		}
	}
	// Repeatable read: once observed, a key keeps its first-seen value.
	if byKey, ok := tx.reads[tableName]; ok {
		if r, seen := byKey[key]; seen {
			if r == nil {
				return nil, fmt.Errorf("%w: %s/%s", ErrNoRecord, tableName, key)
			}
			return cloneBytes(r.value), nil
		}
	}
	t, err := tx.s.table(tableName)
	if err != nil {
		return nil, err
	}
	r := t.getRow(key)
	tx.recordRead(tableName, key, r)
	if r == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoRecord, tableName, key)
	}
	return cloneBytes(r.value), nil
}

func cloneBytes(b []byte) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// Exists reports whether a record exists, observing uncommitted writes.
func (tx *Tx) Exists(tableName, key string) (bool, error) {
	_, err := tx.Get(tableName, key)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrNoRecord) {
		return false, nil
	}
	return false, err
}

func (tx *Tx) stage(op Op, tableName, key string, value []byte) error {
	if tx.done {
		return ErrTxDone
	}
	if _, err := tx.s.table(tableName); err != nil {
		return err
	}
	tx.ops = append(tx.ops, txOp{op: op, table: tableName, key: key, value: value})
	ov, ok := tx.overlay[tableName]
	if !ok {
		ov = make(map[string]*[]byte)
		tx.overlay[tableName] = ov
	}
	if op == OpDelete {
		ov[key] = nil
	} else {
		v := value
		ov[key] = &v
	}
	return nil
}

// Put writes a record (insert or replace).
func (tx *Tx) Put(tableName, key string, value []byte) error {
	return tx.stage(OpPut, tableName, key, value)
}

// Insert writes a record that must not already exist.
func (tx *Tx) Insert(tableName, key string, value []byte) error {
	ok, err := tx.Exists(tableName, key)
	if err != nil {
		return err
	}
	if ok {
		return fmt.Errorf("%w: %s/%s", ErrExists, tableName, key)
	}
	return tx.Put(tableName, key, value)
}

// Delete removes a record if present. Deleting an absent record is an
// error, surfacing accounting bugs (GridBank never blind-deletes).
func (tx *Tx) Delete(tableName, key string) error {
	ok, err := tx.Exists(tableName, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoRecord, tableName, key)
	}
	return tx.stage(OpDelete, tableName, key, nil)
}

// footTable is one table in a commit's footprint: which stripes it
// locks in which mode, and whether predicate protection is needed.
type footTable struct {
	t *table
	// stripe modes: 0 untouched, 1 shared (validated read), 2 exclusive
	// (written). A scanned table marks every untouched stripe shared.
	modes [tableStripes]uint8
	pred  bool
}

const (
	stripeIdle = iota
	stripeShared
	stripeExcl
)

func (f *footTable) mark(key string, mode uint8) {
	i := stripeFor(key)
	if f.modes[i] < mode {
		f.modes[i] = mode
	}
}

// Commit validates the read set, journals and applies all staged writes
// atomically, then releases the touched stripes. It returns ErrConflict
// if a concurrent commit invalidated this transaction's reads.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	s := tx.s

	// Build the footprint: every stripe read or written, plus predicate
	// and scan coverage.
	foot := make(map[string]*footTable)
	ft := func(name string) (*footTable, error) {
		if f, ok := foot[name]; ok {
			return f, nil
		}
		t, err := s.table(name)
		if err != nil {
			return nil, err
		}
		f := &footTable{t: t}
		foot[name] = f
		return f, nil
	}
	for _, op := range tx.ops {
		f, err := ft(op.table)
		if err != nil {
			return err
		}
		f.mark(op.key, stripeExcl)
	}
	for name, byKey := range tx.reads {
		f, err := ft(name)
		if err != nil {
			return err
		}
		for key := range byKey {
			f.mark(key, stripeShared)
		}
	}
	for _, ir := range tx.ixReads {
		f, err := ft(ir.table)
		if err != nil {
			return err
		}
		f.pred = true
	}
	for name := range tx.scans {
		f, err := ft(name)
		if err != nil {
			return err
		}
		for i := range f.modes {
			if f.modes[i] == stripeIdle {
				f.modes[i] = stripeShared
			}
		}
	}
	if len(foot) == 0 {
		return nil // empty transaction
	}
	order := make([]string, 0, len(foot))
	for n := range foot {
		order = append(order, n)
	}
	sort.Strings(order)

	// Prepare the apply plan outside any lock: pre-compute each written
	// row's index keys so the exclusive section never runs index
	// functions (for the accounts table that would mean decoding a row
	// while holding the stripe).
	plan := make([]preparedOp, len(tx.ops))
	for i, op := range tx.ops {
		t := foot[op.table].t
		p := preparedOp{op: op.op, t: t, key: op.key}
		if op.op == OpPut {
			p.r = &row{value: op.value}
			t.mu.RLock()
			if len(t.indexes) > 0 {
				p.r.ixKeys = make(map[string][]string, len(t.indexes))
				for _, ix := range t.indexes {
					p.r.ixKeys[ix.name] = ix.fn(op.key, op.value)
				}
			}
			t.mu.RUnlock()
		}
		plan[i] = p
	}

	// The store may have closed since Begin; a commit must not outlive
	// its journal. (Checked before locking — a Close racing past this
	// point is caught by the journal's own closed check.)
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}

	// Lock the footprint in global order: tables sorted by name; within
	// a table the predicate mutex first, then stripes by index.
	for _, n := range order {
		f := foot[n]
		if f.pred {
			f.t.predMu.Lock()
		}
		for i, m := range f.modes {
			switch m {
			case stripeShared:
				f.t.stripes[i].mu.RLock()
			case stripeExcl:
				f.t.stripes[i].mu.Lock()
			}
		}
	}
	unlock := func() {
		for _, n := range order {
			f := foot[n]
			for i, m := range f.modes {
				switch m {
				case stripeShared:
					f.t.stripes[i].mu.RUnlock()
				case stripeExcl:
					f.t.stripes[i].mu.Unlock()
				}
			}
			if f.pred {
				f.t.predMu.Unlock()
			}
		}
	}

	if !tx.validateLocked(foot) {
		unlock()
		s.mConflicts.Inc()
		return ErrConflict
	}

	// Sequence and publish, then journal (write-ahead). Seq assignment
	// and commit-stream publication share one pubMu section so
	// subscribers observe batches in exact sequence order even when
	// disjoint-stripe commits race. With a group journal the batch is
	// staged — its on-disk position fixed — before the in-memory apply,
	// and the fsync wait happens after the locks are released so
	// concurrent committers coalesce into one flush.
	//
	// Every commit advances the sequence counter, even on a volatile
	// store with no subscribers (the cheap bulk-add branch): sequence
	// numbers are the replication clock, and a follower that reconnects
	// after unwitnessed writes must see the counter moved — otherwise
	// SnapshotSince would judge it current and it would silently miss
	// them forever.
	var wait func() error
	if len(tx.ops) > 0 && (s.journal != nil || s.hasSubs.Load()) {
		entries := make([]Entry, len(tx.ops))
		for i, op := range tx.ops {
			entries[i] = Entry{Op: op.op, Table: op.table, Key: op.key, Value: op.value}
		}
		s.pubMu.Lock()
		for i := range entries {
			entries[i].Seq = s.seq.Add(1)
		}
		s.publishLocked(entries)
		s.pubMu.Unlock()
		if gj, ok := s.journal.(GroupJournal); ok {
			w, err := gj.Stage(entries)
			if err != nil {
				// Subscribers already saw the batch the journal just
				// refused; cut them off and force full snapshots on
				// re-bootstrap so no follower keeps the phantom state.
				s.streamDiverged(fmt.Errorf("db: commit journal: %w", err))
				unlock()
				return fmt.Errorf("db: commit journal: %w", err)
			}
			wait = w
		} else if s.journal != nil {
			if err := s.journal.AppendBatch(entries); err != nil {
				s.streamDiverged(fmt.Errorf("db: commit journal: %w", err))
				unlock()
				return fmt.Errorf("db: commit journal: %w", err)
			}
		}
	} else if len(tx.ops) > 0 {
		// Volatile store, nobody listening: just move the clock. Still
		// under this commit's stripe locks, so a concurrent
		// subscribe+snapshot cuts either before or after the whole
		// commit, never through it.
		s.seq.Add(uint64(len(tx.ops)))
	}

	for _, p := range plan {
		switch p.op {
		case OpPut:
			p.t.applyPut(p.key, p.r)
		case OpDelete:
			p.t.applyDelete(p.key)
		}
	}
	unlock()

	if wait != nil && !tx.noWait {
		if err := wait(); err != nil {
			// The apply already happened: memory now runs ahead of a
			// journal that could not persist the batch. Fail-stop the
			// whole store so nothing serves or snapshots the divergence.
			s.fail(err)
			return fmt.Errorf("db: commit journal: %w", err)
		}
	}
	return nil
}

type preparedOp struct {
	op  Op
	t   *table
	key string
	r   *row // nil for deletes
}

// validateLocked re-checks the read set against current state. Caller
// holds every footprint stripe (and predMu where relevant).
func (tx *Tx) validateLocked(foot map[string]*footTable) bool {
	for name, byKey := range tx.reads {
		t := foot[name].t
		for key, seen := range byKey {
			if t.stripes[stripeFor(key)].rows[key] != seen {
				return false
			}
		}
	}
	for _, ir := range tx.ixReads {
		now, err := foot[ir.table].t.lookupIndex(ir.index, ir.key)
		if err != nil || len(now) != len(ir.result) {
			return false
		}
		for i := range now {
			if now[i] != ir.result[i] {
				return false
			}
		}
	}
	for name, version := range tx.scans {
		if foot[name].t.version.Load() != version {
			return false
		}
	}
	return true
}

// Rollback discards all staged writes. Rollback after Commit (or a
// second Rollback) is a no-op.
func (tx *Tx) Rollback() {
	tx.done = true
}

// Lookup queries a secondary index inside the transaction. Staged writes
// are visible: keys written in this transaction are matched by running the
// index function over the overlay. The raw index result joins the read
// set — at commit the transaction holds the table's predicate mutex and
// revalidates the lookup.
//
// Phantom-protection boundary: predMu serializes only commits that
// themselves performed a Lookup on the table. Two racing uniqueness
// checks (both Lookup-then-Insert, like CreateAccount) therefore
// conflict correctly, but a plain writer that changes a key's index
// membership WITHOUT looking it up is not excluded and could commit
// between another transaction's validate and apply. Callers enforcing
// index-based invariants must perform the Lookup inside every
// transaction that adds membership for the guarded key — the natural
// check-then-insert shape — as the accounts layer does.
func (tx *Tx) Lookup(tableName, indexName, indexKey string) ([]string, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, err := tx.s.table(tableName)
	if err != nil {
		return nil, err
	}
	raw, err := t.lookupIndex(indexName, indexKey)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	ix := t.indexes[indexName]
	t.mu.RUnlock()
	tx.ixReads = append(tx.ixReads, ixRead{table: tableName, index: indexName, key: indexKey, result: raw})

	match := make(map[string]bool, len(raw))
	for _, k := range raw {
		match[k] = true
	}
	if ov, ok := tx.overlay[tableName]; ok {
		for k, vp := range ov {
			delete(match, k) // superseded by overlay
			if vp != nil {
				for _, ik := range ix.fn(k, *vp) {
					if ik == indexKey {
						match[k] = true
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(match))
	for k := range match {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Scan iterates the table inside the transaction, observing staged writes,
// in sorted key order. The whole-table read is validated at commit by the
// table's version counter (with every stripe locked), so any concurrent
// mutation of the table conflicts.
func (tx *Tx) Scan(tableName string, visit func(key string, value []byte) bool) error {
	if tx.done {
		return ErrTxDone
	}
	t, err := tx.s.table(tableName)
	if err != nil {
		return err
	}
	t.lockAllStripes()
	if tx.scans == nil {
		tx.scans = make(map[string]uint64)
	}
	if _, seen := tx.scans[tableName]; !seen {
		tx.scans[tableName] = t.version.Load()
	}
	snapshot := make(map[string][]byte)
	for i := range t.stripes {
		for k, r := range t.stripes[i].rows {
			snapshot[k] = r.value
		}
	}
	t.unlockAllStripes()

	ov := tx.overlay[tableName]
	keys := make([]string, 0, len(snapshot)+len(ov))
	seen := make(map[string]bool, len(snapshot)+len(ov))
	for k := range snapshot {
		if vp, staged := ov[k]; staged && vp == nil {
			continue // deleted in tx
		}
		keys = append(keys, k)
		seen[k] = true
	}
	for k, vp := range ov {
		if vp != nil && !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		var v []byte
		if vp, staged := ov[k]; staged {
			v = *vp
		} else {
			v = snapshot[k]
		}
		if !visit(k, v) {
			break
		}
	}
	return nil
}
