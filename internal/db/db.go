// Package db is the embedded storage substrate standing in for the MySQL
// database of §3.2/§5.1 of the GridBank paper.
//
// It implements exactly what GridBank needs from a relational store and no
// more: named tables of versioned records addressed by primary key,
// secondary indexes, snapshot isolation for readers, ACID transactions
// with rollback, a write-ahead journal for durability, and point-in-time
// snapshots for backup/restore. Records are stored as encoded bytes
// ([]byte), keeping the engine schema-agnostic; the accounts layer
// supplies codecs.
//
// Concurrency model: a store-level RWMutex guards only the schema (the
// set of tables); each table shards its rows over fixed hash stripes,
// each stripe with its own RWMutex. Reads lock only the stripe holding
// their key. Transactions are optimistic: they run without locks,
// record what they read, and at commit lock just the touched stripes
// (in a global sorted order), validate the read set, journal, and
// apply. A transaction whose reads were invalidated by a concurrent
// commit fails with ErrConflict; Update retries automatically.
// Transactions over disjoint keys — a transfer between accounts A→B
// and another between C→D — commit fully in parallel even inside one
// table; only same-stripe commits serialize.
//
// The journal is a file of generations (journal.go): a bin1 generation
// writes each commit as one CRC-guarded record of compact entries —
// uvarint lengths, seq deltas and a per-record dictionary of table
// names (bincodec.go) — and still replays the fixed-width records older
// binaries wrote; a JSON generation is the seed's line format.
package db

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gridbank/internal/obs"
	"gridbank/internal/strhash"
)

// Common errors.
var (
	ErrNoTable  = errors.New("db: no such table")
	ErrNoRecord = errors.New("db: no such record")
	ErrExists   = errors.New("db: record already exists")
	ErrNoIndex  = errors.New("db: no such index")
	ErrTxDone   = errors.New("db: transaction already finished")
	ErrConflict = errors.New("db: write conflict")
	ErrClosed   = errors.New("db: store closed")
	ErrDupTable = errors.New("db: table already exists")
	ErrDupIndex = errors.New("db: index already exists")
)

// IndexFunc extracts the secondary-index key(s) for a record's encoded
// value. Returning nil means the record is not indexed under this index.
// Index functions must be pure: they are re-run on replay, backfill and
// commit, sometimes outside any lock.
type IndexFunc func(key string, value []byte) []string

type index struct {
	name    string
	fn      IndexFunc
	entries map[string]map[string]struct{} // index key -> set of primary keys
}

// row is one stored record. The value slice is immutable once a row is
// published: writers replace the whole *row, never mutate it, so readers
// holding a reference (and the commit validator comparing pointers) are
// safe. ixKeys caches the index keys the row is filed under, so removal
// never re-runs index functions (which would mean decoding JSON inside
// the exclusive section).
type row struct {
	value  []byte
	ixKeys map[string][]string // index name -> keys (lazily filled)
}

// tableStripes is the number of row shards per table. Power of two;
// sized so that a handful of concurrent committers rarely collide.
const tableStripes = 32

// stripe is one shard of a table's rows, with its own lock.
type stripe struct {
	mu   sync.RWMutex
	rows map[string]*row
}

// table shards its rows over stripes. Lock order within a commit is
// fixed: table schema locks (mu) are never held together with stripe
// locks by writers; predMu comes before this table's stripe locks;
// ixMu is a leaf taken transiently with any of the above held.
type table struct {
	name string

	// mu guards the indexes map itself (schema): CreateIndex takes it
	// exclusively, index readers take it shared. Row access never needs
	// it — stripes self-synchronize.
	mu      sync.RWMutex
	indexes map[string]*index

	// predMu serializes commits that performed index lookups on this
	// table (predicate/phantom protection): two racing "is this
	// certificate name taken?" transactions validate and apply one at a
	// time. Plain row writers never take it.
	predMu sync.Mutex

	// ixMu guards every index's entries map. Leaf lock: held only for
	// the moment of an entry read or update, never while acquiring
	// another lock.
	ixMu sync.Mutex

	// version counts committed mutations; transactions that scanned the
	// whole table validate against it (they hold every stripe at
	// commit, so it is stable under them).
	version atomic.Uint64

	stripes [tableStripes]stripe
}

func newTable(name string) *table {
	t := &table{name: name, indexes: make(map[string]*index)}
	for i := range t.stripes {
		t.stripes[i].rows = make(map[string]*row)
	}
	return t
}

// stripeFor returns the shard index for a key.
func stripeFor(key string) int {
	return int(strhash.FNV32a(key) % tableStripes)
}

// getRow reads a row under its stripe's read lock.
func (t *table) getRow(key string) *row {
	st := &t.stripes[stripeFor(key)]
	st.mu.RLock()
	r := st.rows[key]
	st.mu.RUnlock()
	return r
}

// indexKeysFor returns r's cached keys under ix, computing and caching
// them if absent. Callers must hold the row's stripe lock for writing
// (the cache write mutates the row).
func (t *table) indexKeysFor(key string, r *row, ix *index) []string {
	keys, ok := r.ixKeys[ix.name]
	if !ok {
		keys = ix.fn(key, r.value)
		if r.ixKeys == nil {
			r.ixKeys = make(map[string][]string, len(t.indexes))
		}
		r.ixKeys[ix.name] = keys
	}
	return keys
}

// applyPut installs a new row under key, maintaining indexes. Caller
// holds the key's stripe lock for writing (or has exclusive access
// during replay/backfill).
func (t *table) applyPut(key string, r *row) {
	st := &t.stripes[stripeFor(key)]
	old := st.rows[key]
	t.mu.RLock()
	if len(t.indexes) > 0 {
		t.ixMu.Lock()
		if old != nil {
			t.unindexLocked(key, old)
		}
		for _, ix := range t.indexes {
			for _, ik := range t.indexKeysFor(key, r, ix) {
				set, ok := ix.entries[ik]
				if !ok {
					set = make(map[string]struct{})
					ix.entries[ik] = set
				}
				set[key] = struct{}{}
			}
		}
		t.ixMu.Unlock()
	}
	t.mu.RUnlock()
	st.rows[key] = r
	t.version.Add(1)
}

// applyDelete removes key if present. Caller holds the key's stripe
// lock for writing.
func (t *table) applyDelete(key string) {
	st := &t.stripes[stripeFor(key)]
	if old, ok := st.rows[key]; ok {
		t.mu.RLock()
		if len(t.indexes) > 0 {
			t.ixMu.Lock()
			t.unindexLocked(key, old)
			t.ixMu.Unlock()
		}
		t.mu.RUnlock()
		delete(st.rows, key)
	}
	t.version.Add(1)
}

// unindexLocked drops a row's index entries. Caller holds ixMu and the
// row's stripe lock.
func (t *table) unindexLocked(key string, r *row) {
	for _, ix := range t.indexes {
		for _, ik := range t.indexKeysFor(key, r, ix) {
			if set, ok := ix.entries[ik]; ok {
				delete(set, key)
				if len(set) == 0 {
					delete(ix.entries, ik)
				}
			}
		}
	}
}

// lockAllStripes takes every stripe of the table shared, in index
// order — the whole-table read lock used by scans and snapshots.
func (t *table) lockAllStripes() {
	for i := range t.stripes {
		t.stripes[i].mu.RLock()
	}
}

func (t *table) unlockAllStripes() {
	for i := range t.stripes {
		t.stripes[i].mu.RUnlock()
	}
}

// sortedKeysLocked returns all row keys sorted. Caller holds all
// stripes (shared at least).
func (t *table) sortedKeysLocked() []string {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].rows)
	}
	keys := make([]string, 0, n)
	for i := range t.stripes {
		for k := range t.stripes[i].rows {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// lookupIndex reads an index's membership for one key, sorted. Caller
// must not hold ixMu.
func (t *table) lookupIndex(indexName, indexKey string) ([]string, error) {
	t.mu.RLock()
	ix, ok := t.indexes[indexName]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, t.name, indexName)
	}
	t.ixMu.Lock()
	set := ix.entries[indexKey]
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	t.ixMu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// Store is an embedded multi-table database.
type Store struct {
	mu     sync.RWMutex // schema lock: guards tables map and closed flag
	tables map[string]*table
	closed bool

	// instance uniquely identifies this open of the store. Sequence
	// numbers are only comparable within one instance: a restart may
	// replay less history than a follower already saw (lost unsynced
	// tail) and then re-use sequence numbers for different writes, so
	// replication resume checks the epoch before trusting seq equality.
	instance string

	journal Journal       // may be nil (volatile store)
	seq     atomic.Uint64 // monotonically increasing record sequence for WAL entries

	// Commit stream (replication fan-out). pubMu orders sequence
	// assignment with publication: every committer assigns its batch's
	// Seq values and enqueues the batch to subscribers inside one pubMu
	// section, so subscribers observe batches in exact sequence order.
	// pubMu is a leaf lock — held only for the atomic adds and
	// non-blocking channel sends, never while acquiring another lock.
	pubMu   sync.Mutex
	subs    map[*CommitSub]struct{}
	hasSubs atomic.Bool // fast-path skip when nothing ever subscribed
	// forceSnap is set when the stream may have shipped entries the
	// journal never accepted (publish happened, stage failed): sequence
	// numbers were burned without state changing, so "follower seq ==
	// store seq" no longer implies identical history. From then on
	// every bootstrap gets a full snapshot.
	forceSnap atomic.Bool

	// failed is set when a committed transaction's journal flush
	// failed after its in-memory apply: memory and disk have diverged,
	// so the store fail-stops — every subsequent operation reports the
	// original journal error rather than serving (or snapshotting)
	// state that would vanish on restart.
	failed atomic.Pointer[error]

	// OCC telemetry (nil no-ops until SetObs; see internal/obs).
	mConflicts *obs.Counter
	mRetries   *obs.Counter
	mFailed    *obs.Counter // db.storage_failed: fail-stop poisonings
}

// obsJournal is the optional journal extension SetObs forwards to, so
// journal-level instruments (fsync latency, group size, bytes written)
// land in the same registry as the store's OCC counters.
type obsJournal interface {
	setObs(reg *obs.Registry)
}

// SetObs attaches a telemetry registry: OCC conflict/retry counters on
// the store, fsync/group-commit instruments on the journal. Wiring-time
// only — call before the store sees concurrent traffic.
func (s *Store) SetObs(reg *obs.Registry) {
	s.mConflicts = reg.Counter("db.occ_conflicts")
	s.mRetries = reg.Counter("db.occ_retries")
	s.mFailed = reg.Counter("db.storage_failed")
	if oj, ok := s.journal.(obsJournal); ok {
		oj.setObs(reg)
	}
}

// fail poisons the store after a divergence-inducing journal error.
// Subscribers are cut off with the same error: the stream may have
// shipped batches that were never made durable, so followers must
// re-bootstrap from whatever the primary recovers to. The poisoning
// error always matches ErrStorageFailed, so every later refusal is
// typed — callers see "unavailable", never silent data loss.
func (s *Store) fail(err error) {
	var wrapped error
	if errors.Is(err, ErrStorageFailed) {
		wrapped = fmt.Errorf("db: store failed, in-memory state not durable: %w", err)
	} else {
		wrapped = fmt.Errorf("db: store failed, in-memory state not durable: %w: %w", ErrStorageFailed, err)
	}
	if s.failed.CompareAndSwap(nil, &wrapped) {
		s.mFailed.Inc()
	}
	s.closeSubs(*s.failed.Load())
}

// failedErr returns the poisoning error, or nil.
func (s *Store) failedErr() error {
	if p := s.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Open creates a Store backed by the given journal. If journal is non-nil
// and non-empty, the store's state is rebuilt by replaying it. A nil
// journal yields a volatile in-memory store.
func Open(journal Journal) (*Store, error) {
	s := &Store{tables: make(map[string]*table), journal: journal, instance: newInstanceID()}
	if journal != nil {
		if err := journal.Replay(func(e Entry) error { return s.applyEntry(e) }); err != nil {
			return nil, fmt.Errorf("db: journal replay: %w", err)
		}
	}
	return s, nil
}

// MustOpenMemory returns a volatile store, for tests and simulations.
func MustOpenMemory() *Store {
	s, err := Open(nil)
	if err != nil {
		panic(err)
	}
	return s
}

// applyEntry applies one journal entry during replay (no re-journaling).
// Replay is single-threaded; the apply helpers' internal locking is
// uncontended.
func (s *Store) applyEntry(e Entry) error {
	switch e.Op {
	case OpCreateTable:
		if _, ok := s.tables[e.Table]; ok {
			break // idempotent replay
		}
		s.tables[e.Table] = newTable(e.Table)
	case OpPut:
		t, ok := s.tables[e.Table]
		if !ok {
			return fmt.Errorf("%w: %q (replay put)", ErrNoTable, e.Table)
		}
		t.applyPut(e.Key, &row{value: e.Value})
	case OpDelete:
		t, ok := s.tables[e.Table]
		if !ok {
			return fmt.Errorf("%w: %q (replay delete)", ErrNoTable, e.Table)
		}
		t.applyDelete(e.Key)
	default:
		return fmt.Errorf("db: unknown journal op %q", e.Op)
	}
	if e.Seq > s.seq.Load() {
		s.seq.Store(e.Seq)
	}
	return nil
}

// Close flushes and closes the journal. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.closeSubs(ErrClosed)
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// table resolves a table by name, checking the store is open. The
// returned handle stays valid forever (tables are never dropped).
func (s *Store) table(name string) (*table, error) {
	if err := s.failedErr(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// CreateTable registers a new table. Creating a table that exists is an
// error, so schema setup bugs surface immediately; use EnsureTable for
// idempotent setup.
func (s *Store) CreateTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("%w: %q", ErrDupTable, name)
	}
	if err := s.journalAppend(Entry{Op: OpCreateTable, Table: name}); err != nil {
		return err
	}
	s.tables[name] = newTable(name)
	return nil
}

// EnsureTable creates the table if absent.
func (s *Store) EnsureTable(name string) error {
	s.mu.RLock()
	_, ok := s.tables[name]
	s.mu.RUnlock()
	if ok {
		return nil
	}
	err := s.CreateTable(name)
	if errors.Is(err, ErrDupTable) {
		return nil
	}
	return err
}

// CreateIndex registers a secondary index over a table and backfills it
// from existing rows. Indexes are in-memory only: they are deterministic
// functions of the data and are rebuilt on journal replay.
func (s *Store) CreateIndex(tableName, indexName string, fn IndexFunc) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	// Shared on every stripe (no commit can apply during the backfill),
	// then exclusive on the schema. Stripes-before-table.mu is the
	// global lock order: appliers hold stripe locks when they read the
	// index set.
	t.lockAllStripes()
	defer t.unlockAllStripes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[indexName]; ok {
		return fmt.Errorf("%w: %s.%s", ErrDupIndex, tableName, indexName)
	}
	ix := &index{name: indexName, fn: fn, entries: make(map[string]map[string]struct{})}
	t.indexes[indexName] = ix
	for i := range t.stripes {
		for k, r := range t.stripes[i].rows {
			for _, ik := range ix.fn(k, r.value) {
				set, ok := ix.entries[ik]
				if !ok {
					set = make(map[string]struct{})
					ix.entries[ik] = set
				}
				set[k] = struct{}{}
			}
			// Invalidate any stale cache so future removals recompute
			// under the new index set.
			if r.ixKeys != nil {
				delete(r.ixKeys, indexName)
			}
		}
	}
	return nil
}

func (s *Store) journalAppend(e Entry) error {
	if s.journal == nil && !s.hasSubs.Load() {
		// Volatile, nobody listening: advance the replication clock so
		// reconnecting followers know they missed something.
		s.seq.Add(1)
		return nil
	}
	s.pubMu.Lock()
	e.Seq = s.seq.Add(1)
	s.publishLocked([]Entry{e})
	s.pubMu.Unlock()
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Append(e); err != nil {
		// Subscribers already saw the entry; they must re-bootstrap
		// against whatever the journal actually holds.
		s.streamDiverged(fmt.Errorf("db: journal append failed after publish: %w", err))
		return err
	}
	return nil
}

// Get returns the encoded record stored under key. The returned slice is
// the caller's to keep: it is a defensive copy, never aliased with
// writer state.
func (s *Store) Get(tableName, key string) ([]byte, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	r := t.getRow(key)
	if r == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoRecord, tableName, key)
	}
	return cloneBytes(r.value), nil
}

// Lookup returns the primary keys of records whose index key equals
// indexKey, in sorted order.
func (s *Store) Lookup(tableName, indexName, indexKey string) ([]string, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	return t.lookupIndex(indexName, indexKey)
}

// Scan visits every record in a table in sorted key order. The callback
// must not retain or modify value. Returning false stops the scan.
func (s *Store) Scan(tableName string, visit func(key string, value []byte) bool) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	t.lockAllStripes()
	defer t.unlockAllStripes()
	for _, k := range t.sortedKeysLocked() {
		if !visit(k, t.stripes[stripeFor(k)].rows[k].value) {
			break
		}
	}
	return nil
}

// Count returns the number of records in a table.
func (s *Store) Count(tableName string) (int, error) {
	t, err := s.table(tableName)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range t.stripes {
		t.stripes[i].mu.RLock()
		n += len(t.stripes[i].rows)
		t.stripes[i].mu.RUnlock()
	}
	return n, nil
}

// Tables returns the names of all tables, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
