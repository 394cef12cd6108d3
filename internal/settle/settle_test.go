package settle_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/settle"
	"gridbank/internal/wire"
)

// item is the fake pipeline's spool row.
type item struct {
	Key    string      `json:"key"`
	Drawer accounts.ID `json:"drawer"`
	State  string      `json:"state"`
	Reason string      `json:"reason,omitempty"`
	N      int         `json:"n,omitempty"` // what a merge sums
}

func (r *item) SpoolKey() string      { return r.Key }
func (r *item) DrawerID() accounts.ID { return r.Drawer }
func (r *item) Parked() bool          { return r.State == "failed" }
func (r *item) Park(reason string)    { r.State, r.Reason = "failed", reason }

var (
	errOverloaded = errors.New("fake: overloaded")
	errClosed     = errors.New("fake: closed")
	errStalled    = errors.New("fake: drain stalled")
	errTimeout    = errors.New("fake: drain timeout")
)

// fake is an in-memory strategy: settle decides each batch's outcome,
// defaulting to "finish everything".
type fake struct {
	mu     sync.Mutex
	settle func(b *settle.Batch[*item]) error
	admit  func(incoming, parked *item) bool
}

func (f *fake) set(fn func(b *settle.Batch[*item]) error) {
	f.mu.Lock()
	f.settle = fn
	f.mu.Unlock()
}

func (f *fake) run(b *settle.Batch[*item]) error {
	f.mu.Lock()
	fn := f.settle
	f.mu.Unlock()
	if fn == nil {
		return b.Finish(b.Rows, nil)
	}
	return fn(b)
}

func newEngine(t *testing.T, spool *db.Store, f *fake, tune func(*settle.Config[*item])) *settle.Engine[*item] {
	t.Helper()
	cfg := settle.Config[*item]{
		Name:            "fake",
		BatchMetric:     "batch",
		Table:           "fake_spool",
		Spool:           spool,
		ShardFor:        func(id accounts.ID) int { return len(id) % 2 },
		Workers:         -1,
		ErrOverloaded:   errOverloaded,
		ErrClosed:       errClosed,
		ErrDrainStalled: errStalled,
		ErrDrainTimeout: errTimeout,
		Encode:          func(r *item) ([]byte, error) { return json.Marshal(r) },
		Decode: func(_ string, raw []byte) (*item, error) {
			var r item
			return &r, json.Unmarshal(raw, &r)
		},
		Settle: f.run,
	}
	if f.admit != nil {
		cfg.Admit = f.admit
	}
	if tune != nil {
		tune(&cfg)
	}
	e, err := settle.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(func() { e.Close() })
	return e
}

func items(drawer string, keys ...string) []*item {
	out := make([]*item, len(keys))
	for i, k := range keys {
		out[i] = &item{Key: k, Drawer: accounts.ID(drawer), State: "pending"}
	}
	return out
}

func TestBackpressureNeverOvershootsUnderConcurrentSubmit(t *testing.T) {
	const bound, submitters, perBatch = 40, 16, 5
	var peak atomic.Int64
	var e *settle.Engine[*item]
	f := &fake{admit: func(*item, *item) bool {
		// Inside the intake transaction: the reservation is held here.
		if p := int64(e.Status().Pending); p > peak.Load() {
			peak.Store(p)
		}
		return true
	}}
	e = newEngine(t, db.MustOpenMemory(), f, func(c *settle.Config[*item]) { c.MaxPending = bound })
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			keys := make([]string, perBatch)
			for i := range keys {
				keys[i] = fmt.Sprintf("s%d-%d", s, i)
			}
			in, err := e.Submit(items(fmt.Sprintf("d%d", s%3), keys...))
			switch {
			case err == nil:
				accepted.Add(int64(in.Accepted))
			case !errors.Is(err, errOverloaded):
				t.Errorf("submit: %v", err)
			}
		}(s)
	}
	wg.Wait()
	if got := accepted.Load(); got != bound {
		t.Errorf("accepted %d of %d offered, want exactly the bound %d", got, submitters*perBatch, bound)
	}
	if st := e.Status(); st.Pending != bound || st.QueueDepth != bound {
		t.Errorf("after intake: %+v", st)
	}
	if p := peak.Load(); p > bound {
		t.Errorf("pending peaked at %d, bound %d", p, bound)
	}
}

func TestParkedRowRevivesOnResubmit(t *testing.T) {
	f := &fake{}
	e := newEngine(t, db.MustOpenMemory(), f, nil)
	f.set(func(b *settle.Batch[*item]) error {
		return b.Finish(nil, []settle.Parked[*item]{{Row: b.Rows[0], Reason: "no funds"}})
	})
	if _, err := e.Submit(items("d", "a")); err != nil {
		t.Fatal(err)
	}
	if n, err := e.SettleOnce(); n != 1 || err != nil {
		t.Fatalf("settle = %d, %v", n, err)
	}
	if st := e.Status(); st.Failed != 1 || st.Pending != 0 {
		t.Fatalf("after park: %+v", st)
	}
	// Draining does not retry a parked row.
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	f.set(nil)
	in, err := e.Submit(items("d", "a"))
	if err != nil || in.Accepted != 1 || in.Duplicates != 0 {
		t.Fatalf("resubmit = %+v, %v", in, err)
	}
	if st := e.Status(); st.Failed != 0 || st.Pending != 1 {
		t.Fatalf("after revive: %+v", st)
	}
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := e.Status(); st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestPendingKeyIsDuplicateAndAdmitCanRefuse(t *testing.T) {
	f := &fake{admit: func(incoming, cur *item) bool {
		return incoming.Key != "settled-elsewhere" && (cur == nil || cur.Parked())
	}}
	e := newEngine(t, db.MustOpenMemory(), f, nil)
	if _, err := e.Submit(items("d", "a")); err != nil {
		t.Fatal(err)
	}
	in, err := e.Submit(items("d", "a", "settled-elsewhere", "b"))
	if err != nil || in.Accepted != 1 || in.Duplicates != 2 {
		t.Fatalf("intake = %+v, %v", in, err)
	}
	e.CountDuplicates(3) // e.g. stale claims recognised at settlement
	if st := e.Status(); st.Duplicates != 5 || st.Pending != 2 {
		t.Fatalf("status: %+v", st)
	}
}

// mergeAdmit merges an incoming row into a pending one by summing N,
// and revives a parked one.
func mergeAdmit(incoming, cur *item) bool {
	if cur != nil && !cur.Parked() {
		incoming.N += cur.N
	}
	return true
}

func withN(n int, rows []*item) []*item {
	for _, r := range rows {
		r.N = n
	}
	return rows
}

// storedN reads the N the spool holds under key (0: no row).
func storedN(t *testing.T, spool *db.Store, key string) int {
	t.Helper()
	raw, err := spool.Get("fake_spool", key)
	if errors.Is(err, db.ErrNoRecord) {
		return 0
	}
	var r item
	if err == nil {
		err = json.Unmarshal(raw, &r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r.N
}

func TestMergeIntoPendingKeyQueuesItOnce(t *testing.T) {
	var settled []int
	f := &fake{admit: mergeAdmit}
	e := newEngine(t, db.MustOpenMemory(), f, nil)
	f.set(func(b *settle.Batch[*item]) error {
		for _, r := range b.Rows {
			settled = append(settled, r.N)
		}
		return b.Finish(b.Rows, nil)
	})
	for _, n := range []int{1, 2, 4} {
		if in, err := e.Submit(withN(n, items("d", "a"))); err != nil || in.Accepted != 1 || in.Duplicates != 0 {
			t.Fatalf("submit %d = %+v, %v", n, in, err)
		}
	}
	if st := e.Status(); st.Pending != 1 || st.QueueDepth != 1 {
		t.Fatalf("merged key queued more than once: %+v", st)
	}
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(settled, []int{7}) {
		t.Fatalf("settled %v, want the one merged row", settled)
	}
}

// TestMergeWhileInFlightIsRequeuedNotRetired: intake merges into a key a
// batch holds in flight. The batch's Finish must leave the merged row in
// the spool — deleting or parking it would lose the merged claims — and
// queue it again, so the pass takes it once more and retires it whole.
// The pipeline's own Rewrite of a row in flight is not a merge.
func TestMergeWhileInFlightIsRequeuedNotRetired(t *testing.T) {
	park := func(b *settle.Batch[*item]) error {
		return b.Finish(nil, []settle.Parked[*item]{{Row: b.Rows[0], Reason: "refused"}})
	}
	finish := func(b *settle.Batch[*item]) error { return b.Finish(b.Rows, nil) }
	for _, tc := range []struct {
		name    string
		finish  func(b *settle.Batch[*item]) error
		rewrite bool
		seen    []int  // N of each batch the row was settled in
		super   []bool // Superseded after each Finish
		stored  int    // N left in the spool
		failed  int
	}{
		{name: "finish", finish: finish, seen: []int{1, 3}, super: []bool{true, false}},
		{name: "park", finish: park, seen: []int{1, 3}, super: []bool{true, false}, stored: 3, failed: 1},
		{name: "own rewrite is not a merge", finish: finish, rewrite: true, seen: []int{1}, super: []bool{false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spool := db.MustOpenMemory()
			taken, release := make(chan struct{}), make(chan struct{})
			var block sync.Once
			var seen []int
			var super []bool
			f := &fake{admit: mergeAdmit}
			e := newEngine(t, spool, f, nil)
			f.set(func(b *settle.Batch[*item]) error {
				block.Do(func() {
					close(taken)
					<-release
				})
				seen = append(seen, b.Rows[0].N)
				if tc.rewrite {
					if _, err := b.Rewrite(b.Rows[0], func(cur *item) bool { cur.N *= 10; return true }); err != nil {
						return err
					}
				}
				err := tc.finish(b)
				super = append(super, b.Superseded(b.Rows[0]))
				return err
			})
			if _, err := e.Submit(withN(1, items("d", "a"))); err != nil {
				t.Fatal(err)
			}
			passed := make(chan error, 1)
			go func() {
				n, err := e.SettleOnce()
				if err == nil && n != 1 {
					err = fmt.Errorf("pass retired %d rows, want 1", n)
				}
				passed <- err
			}()
			<-taken
			if !tc.rewrite {
				if in, err := e.Submit(withN(2, items("d", "a"))); err != nil || in.Accepted != 1 {
					t.Fatalf("merge = %+v, %v", in, err)
				}
			}
			close(release)
			if err := <-passed; err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seen, tc.seen) || !slices.Equal(super, tc.super) {
				t.Fatalf("batches saw n=%v, superseded %v; want %v, %v", seen, super, tc.seen, tc.super)
			}
			if got := storedN(t, spool, "a"); got != tc.stored {
				t.Fatalf("spool holds n=%d, want %d", got, tc.stored)
			}
			if st := e.Status(); st.Pending != 0 || st.Failed != tc.failed {
				t.Fatalf("after the pass: %+v", st)
			}
		})
	}
}

func TestTransientErrorRequeuesEveryUnfinishedRow(t *testing.T) {
	f := &fake{}
	e := newEngine(t, db.MustOpenMemory(), f, nil)
	if _, err := e.Submit(items("d", "a", "b", "c", "e")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("ledger hiccup")
	f.set(func(b *settle.Batch[*item]) error {
		if err := b.Finish(b.Rows[:1], nil); err != nil {
			return err
		}
		return boom // b fails; c and e were never touched
	})
	n, err := e.SettleOnce()
	if n != 1 || !errors.Is(err, boom) {
		t.Fatalf("settle = %d, %v", n, err)
	}
	if st := e.Status(); st.Pending != 3 || st.QueueDepth != 3 || st.InFlight != 0 {
		t.Fatalf("siblings not visible after the fault: %+v", st)
	}
	f.set(nil)
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := e.Status(); st.Pending != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestAbandonRequeuesNothingAndRecoveryRebuildsTheQueue(t *testing.T) {
	j := db.NewMemJournal()
	spool, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	f := &fake{}
	e := newEngine(t, spool, f, nil)
	if _, err := e.Submit(items("d1", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(items("d22", "c")); err != nil {
		t.Fatal(err)
	}
	f.set(func(b *settle.Batch[*item]) error {
		if err := b.Finish(nil, []settle.Parked[*item]{{Row: b.Rows[0], Reason: "parked before death"}}); err != nil {
			return err
		}
		return settle.Abandon(errors.New("injected death"))
	})
	if _, err := e.SettleOnce(); !errors.Is(err, settle.ErrAbandoned) {
		t.Fatalf("settle err = %v", err)
	}
	// The dead process lost its queue: the first group's survivor is not
	// requeued, and the pass stopped before the second group was taken.
	if st := e.Status(); st.Pending != 1 || st.Failed != 1 {
		t.Fatalf("after abandon: %+v", st)
	}
	e.Close()

	spool2, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	e2 := newEngine(t, spool2, &fake{}, func(c *settle.Config[*item]) {
		c.Recovered = func(r *item) { seen = append(seen, r.Key) }
	})
	if st := e2.Status(); st.Pending != 2 || st.QueueDepth != 2 || st.Failed != 1 {
		t.Fatalf("recovered: %+v", st)
	}
	if len(seen) != 3 {
		t.Fatalf("Recovered saw %v, want all three rows", seen)
	}
	if err := e2.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := e2.Status(); st.Pending != 0 || st.Failed != 1 {
		t.Fatalf("after recovery drain: %+v", st)
	}
}

func TestSpooledHookLeavesRowsDurableButUnqueued(t *testing.T) {
	j := db.NewMemJournal()
	spool, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, spool, &fake{}, func(c *settle.Config[*item]) {
		c.Spooled = func(first *item) error { return settle.Abandon(errors.New("died after " + first.Key)) }
	})
	in, err := e.Submit(items("d", "a", "b"))
	if !errors.Is(err, settle.ErrAbandoned) || in == nil || in.Accepted != 2 {
		t.Fatalf("submit = %+v, %v", in, err)
	}
	if st := e.Status(); st.Pending != 0 {
		t.Fatalf("rows queued despite the hook: %+v", st)
	}
	spool2, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	if st := newEngine(t, spool2, &fake{}, nil).Status(); st.Pending != 2 {
		t.Fatalf("recovered: %+v", st)
	}
}

func TestSyncDrainStallsOnlyOnSettleableWork(t *testing.T) {
	t.Run("reservation is waited out", func(t *testing.T) {
		inTx, release := make(chan struct{}), make(chan struct{})
		f := &fake{admit: func(*item, *item) bool {
			close(inTx)
			<-release
			return true
		}}
		e := newEngine(t, db.MustOpenMemory(), f, nil)
		submitted := make(chan error, 1)
		go func() {
			_, err := e.Submit(items("d", "a"))
			submitted <- err
		}()
		<-inTx // the Submit holds a reservation, nothing is queued yet
		drained := make(chan error, 1)
		go func() { drained <- e.Drain(5 * time.Second) }()
		select {
		case err := <-drained:
			t.Fatalf("drain returned %v while only a reservation was pending", err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		if err := <-submitted; err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatalf("drain = %v", err)
		}
		if st := e.Status(); st.Pending != 0 {
			t.Fatalf("after drain: %+v", st)
		}
	})
	t.Run("work another pass holds in flight is a stall", func(t *testing.T) {
		taken, release := make(chan struct{}), make(chan struct{})
		f := &fake{}
		e := newEngine(t, db.MustOpenMemory(), f, nil)
		f.set(func(b *settle.Batch[*item]) error {
			close(taken)
			<-release
			return b.Finish(b.Rows, nil)
		})
		if _, err := e.Submit(items("d", "a")); err != nil {
			t.Fatal(err)
		}
		passed := make(chan error, 1)
		go func() {
			_, err := e.SettleOnce()
			passed <- err
		}()
		<-taken
		if err := e.Drain(time.Second); !errors.Is(err, errStalled) {
			t.Fatalf("drain = %v, want the stall verdict", err)
		}
		close(release)
		if err := <-passed; err != nil {
			t.Fatal(err)
		}
	})
}

func TestWorkersSettleRetryAndClose(t *testing.T) {
	f := &fake{}
	var faults atomic.Int64
	f.set(func(b *settle.Batch[*item]) error {
		if faults.Add(1) <= 2 {
			return errors.New("transient")
		}
		return b.Finish(b.Rows, nil)
	})
	e := newEngine(t, db.MustOpenMemory(), f, func(c *settle.Config[*item]) {
		c.Workers, c.RetryInterval, c.BatchSize = 3, time.Millisecond, 2
	})
	for i := 0; i < 20; i++ {
		if _, err := e.Submit(items(fmt.Sprintf("d%d", i%4), fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Close waits for the workers, so the one that hit the fault has
	// recorded it by now.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.Pending != 0 || st.LastError == "" || st.Workers != 3 || st.BatchSize != 2 {
		t.Fatalf("status: %+v", st)
	}
	if _, err := e.Submit(items("d", "late")); !errors.Is(err, errClosed) {
		t.Fatalf("submit after close = %v", err)
	}
	if err := e.Drain(time.Second); !errors.Is(err, errClosed) {
		t.Fatalf("drain after close = %v", err)
	}
}

func TestDrainTimesOut(t *testing.T) {
	inTx, release := make(chan struct{}), make(chan struct{})
	e := newEngine(t, db.MustOpenMemory(), &fake{admit: func(*item, *item) bool {
		close(inTx)
		<-release
		return true
	}}, nil)
	submitted := make(chan error, 1)
	go func() {
		_, err := e.Submit(items("d", "a"))
		submitted <- err
	}()
	<-inTx
	if err := e.Drain(20 * time.Millisecond); !errors.Is(err, errTimeout) {
		t.Fatalf("drain = %v, want timeout", err)
	}
	close(release)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
}

func TestStorageFailureIsNeverTerminal(t *testing.T) {
	verdict := errors.New("fake: chain released")
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{accounts.ErrInsufficient, true},
		{fmt.Errorf("settling: %w", accounts.ErrClosed), true},
		{verdict, true},
		{errors.New("connection reset"), false},
		{db.ErrStorageFailed, false},
		{fmt.Errorf("%w: %w", accounts.ErrInsufficient, db.ErrStorageFailed), false},
		{fmt.Errorf("%w: %w", verdict, db.ErrStorageFailed), false},
	} {
		if got := settle.Terminal(tc.err, verdict); got != tc.want {
			t.Errorf("Terminal(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestNewRequiresSpool(t *testing.T) {
	if _, err := settle.New(settle.Config[*item]{Name: "fake"}); err == nil {
		t.Fatal("engine built without a spool store")
	}
}

func TestNewRequiresCodec(t *testing.T) {
	if _, err := settle.New(settle.Config[*item]{Name: "fake", Spool: db.MustOpenMemory()}); err == nil {
		t.Fatal("engine built without a spool row codec")
	}
}

// countFS counts the Sync calls the storage layer makes, so a test can
// say how many device flushes an engine step cost.
type countFS struct {
	db.FS
	syncs *atomic.Int64
}

func (c countFS) OpenFile(name string, flag int, perm os.FileMode) (db.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{f, c.syncs}, nil
}

type countFile struct {
	db.File
	syncs *atomic.Int64
}

func (f countFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

const spoolWAL = "/spool.wal"

// diskSpool is a spool store on a file journal (fsync per flush) over a
// fault-injecting disk: staged-but-unflushed batches are really lost by
// Crash, unlike on the in-memory journals.
type diskSpool struct {
	t     *testing.T
	disk  *diskfault.Disk
	syncs atomic.Int64
}

func newDiskSpool(t *testing.T) *diskSpool {
	return &diskSpool{t: t, disk: diskfault.New(diskfault.Config{})}
}

func (d *diskSpool) open() *db.Store {
	d.t.Helper()
	j, err := db.OpenFileJournalCodecFS(countFS{d.disk, &d.syncs}, spoolWAL, true, wire.CodecJSON)
	if err != nil {
		d.t.Fatal(err)
	}
	st, err := db.Open(j)
	if err != nil {
		d.t.Fatal(err)
	}
	return st
}

// durableOps lists the spool-table operations that would survive a
// crash right now, in journal order ("put a", "del a", ...).
func (d *diskSpool) durableOps() []string {
	d.t.Helper()
	var ops []string
	for _, line := range bytes.Split(d.disk.Durable(spoolWAL), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var batch []db.Entry
		if err := json.Unmarshal(line, &batch); err != nil {
			d.t.Fatalf("durable journal line %q: %v", line, err)
		}
		for _, e := range batch {
			if e.Table == "fake_spool" && e.Op != db.OpCreateTable {
				ops = append(ops, string(e.Op)+" "+e.Key)
			}
		}
	}
	return ops
}

// TestFinishRidesTheNextGroupFlush is the mechanism behind "two durable
// waits per submit→settled": Finish costs no device flush of its own,
// the next Submit's single flush carries it in staging order, and
// closing the engine and its store makes the last one durable.
func TestFinishRidesTheNextGroupFlush(t *testing.T) {
	d := newDiskSpool(t)
	spool := d.open()
	e := newEngine(t, spool, &fake{}, nil)
	step := func(name string, wantSyncs int64, fn func()) {
		t.Helper()
		before := d.syncs.Load()
		fn()
		if got := d.syncs.Load() - before; got != wantSyncs {
			t.Fatalf("%s cost %d fsyncs, want %d", name, got, wantSyncs)
		}
	}
	submit := func(key string) func() {
		return func() {
			if _, err := e.Submit(items("d", key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle := func() {
		if n, err := e.SettleOnce(); n != 1 || err != nil {
			t.Fatalf("settle = %d, %v", n, err)
		}
	}
	step("submit a", 1, submit("a"))
	step("settle + finish a", 0, settle)
	if st := e.Status(); st.Pending != 0 {
		t.Fatalf("after finish: %+v", st)
	}
	if got := d.durableOps(); !slices.Equal(got, []string{"put a"}) {
		t.Fatalf("durable before the next flush: %v", got)
	}
	step("submit b", 1, submit("b"))
	if got := d.durableOps(); !slices.Equal(got, []string{"put a", "del a", "put b"}) {
		t.Fatalf("durable after the next submit: %v (want the finish carried, in staging order)", got)
	}
	step("settle + finish b", 0, settle)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.durableOps(); !slices.Equal(got, []string{"put a", "del a", "put b", "del b"}) {
		t.Fatalf("durable after close: %v", got)
	}
	d.disk.Crash()
	if st := newEngine(t, d.open(), &fake{}, nil).Status(); st.Pending != 0 || st.Failed != 0 {
		t.Fatalf("reopened after close: %+v", st)
	}
}

// TestLostFinishComesBackPending: a crash before the carrying flush
// loses the finish AND the park, and recovery queues both rows again.
func TestLostFinishComesBackPending(t *testing.T) {
	d := newDiskSpool(t)
	f := &fake{}
	e := newEngine(t, d.open(), f, nil)
	if _, err := e.Submit(items("d", "paid", "refused")); err != nil {
		t.Fatal(err)
	}
	f.set(func(b *settle.Batch[*item]) error {
		return b.Finish(b.Rows[:1], []settle.Parked[*item]{{Row: b.Rows[1], Reason: "no funds"}})
	})
	if n, err := e.SettleOnce(); n != 2 || err != nil {
		t.Fatalf("settle = %d, %v", n, err)
	}
	if st := e.Status(); st.Pending != 0 || st.Failed != 1 {
		t.Fatalf("before the crash: %+v", st)
	}
	d.disk.Crash()
	e.Close()
	if st := newEngine(t, d.open(), &fake{}, nil).Status(); st.Pending != 2 || st.Failed != 0 {
		t.Fatalf("recovered: %+v, want both rows pending again", st)
	}
}

// TestFailedCarryingFlushPoisonsTheSpool: when the flush that carries a
// staged Finish fails, the Submit leading it gets the typed refusal,
// the spool fail-stops, and no acknowledged row is lost — the finished
// ones come back pending for the redo.
func TestFailedCarryingFlushPoisonsTheSpool(t *testing.T) {
	d := newDiskSpool(t)
	e := newEngine(t, d.open(), &fake{}, nil)
	if _, err := e.Submit(items("d", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if n, err := e.SettleOnce(); n != 2 || err != nil {
		t.Fatalf("settle = %d, %v", n, err)
	}
	d.disk.AddRule(diskfault.Rule{PathSuffix: spoolWAL, Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO})
	if _, err := e.Submit(items("d", "c")); !errors.Is(err, db.ErrStorageFailed) {
		t.Fatalf("submit leading the failed flush = %v, want ErrStorageFailed", err)
	}
	d.disk.ClearRules()
	if _, err := e.Submit(items("d", "e")); !errors.Is(err, db.ErrStorageFailed) {
		t.Fatalf("submit on the poisoned spool = %v, want ErrStorageFailed", err)
	}
	if st := e.Status(); st.Pending != 0 {
		t.Fatalf("refused rows queued: %+v", st)
	}
	d.disk.Crash()
	e.Close()
	var seen []string
	e2 := newEngine(t, d.open(), &fake{}, func(c *settle.Config[*item]) {
		c.Recovered = func(r *item) { seen = append(seen, r.Key) }
	})
	if st := e2.Status(); st.Pending != 2 || !slices.Equal(seen, []string{"a", "b"}) {
		t.Fatalf("recovered %v, %+v; want exactly the acknowledged a and b", seen, st)
	}
}

// TestDrainWakesOnTheLastRetirement: with workers, Drain sleeps on the
// pending count reaching zero — not on a poll. RetryInterval is an hour
// here, so only the kick and the wake-up can move anything.
func TestDrainWakesOnTheLastRetirement(t *testing.T) {
	taken, release := make(chan struct{}), make(chan struct{})
	f := &fake{}
	f.set(func(b *settle.Batch[*item]) error {
		close(taken)
		<-release
		return b.Finish(b.Rows, nil)
	})
	e := newEngine(t, db.MustOpenMemory(), f, func(c *settle.Config[*item]) {
		c.Workers, c.RetryInterval = 2, time.Hour
	})
	if _, err := e.Submit(items("d", "a")); err != nil {
		t.Fatal(err)
	}
	<-taken
	const waiters = 3
	drained := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { drained <- e.Drain(10 * time.Second) }()
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a row in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-drained; err != nil {
			t.Fatalf("drain = %v", err)
		}
	}
	if st := e.Status(); st.Pending != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

func TestCloseWakesAWaitingDrain(t *testing.T) {
	inTx, release := make(chan struct{}), make(chan struct{})
	e := newEngine(t, db.MustOpenMemory(), &fake{admit: func(*item, *item) bool {
		close(inTx)
		<-release
		return true
	}}, func(c *settle.Config[*item]) { c.Workers, c.RetryInterval = 1, time.Hour })
	submitted := make(chan error, 1)
	go func() {
		_, err := e.Submit(items("d", "a"))
		submitted <- err
	}()
	<-inTx // a reservation is pending and nothing can settle it
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(10 * time.Second) }()
	time.Sleep(10 * time.Millisecond) // let the drain reach its wait (either order must pass)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; !errors.Is(err, errClosed) {
		t.Fatalf("drain across close = %v", err)
	}
	close(release)
	<-submitted
}
