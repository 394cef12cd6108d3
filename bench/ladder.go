package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

// The layer ladder: the benchmark's own code calls each layer's public
// functions, bottom-up, on inputs from the same generators the daemon
// workloads use. Each rung is timed on its own; a rung's self time is
// its median minus the medians of the rungs it calls. Rungs above db
// run on volatile stores so their self times are CPU only and steady;
// what durability adds is measured once, at the db rung, and added back
// per commit when the ladder is compared with the daemon's solo path
// (ladder.coverage).

// ladderIters is the iteration count per rung; rungs that fsync or
// handshake per iteration run ladderSlowIters.
type ladderSize struct {
	iters, slowIters int
	history          int // transfers in the replay/checkpoint history
}

var fullLadder = ladderSize{iters: 2048, slowIters: 200, history: 2000}

// ladderRound is how many items the pipeline rungs spool between
// drains.
const ladderRound = 256

// medianNs runs fn n times and returns the median duration in ns.
func medianNs(n int, fn func() error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t))
	}
	return median(d), nil
}

// medianNsBatched times batches of `batch` calls, for rungs too short
// for one clock reading each.
func medianNsBatched(n, batch int, fn func()) float64 {
	d := make([]float64, max(1, n/batch))
	for i := range d {
		t := time.Now()
		for k := 0; k < batch; k++ {
			fn()
		}
		d[i] = float64(time.Since(t)) / float64(batch)
	}
	return median(d)
}

// --- counting / timing decorators ---------------------------------------------

// countingFS is a db.FS that counts fsyncs and bytes written through
// every file it opens.
type countingFS struct {
	db.FS
	syncs, bytes atomic.Int64
}

type countingFile struct {
	db.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (db.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// timingJournal decorates a group-commit journal: it counts commits
// and entries and times how long each committer waits for its batch to
// become durable.
type timingJournal struct {
	db.GroupJournal
	commits, entries atomic.Int64

	mu    sync.Mutex
	waits []float64 // ns
}

func newTimingJournal(j db.Journal) (*timingJournal, error) {
	gj, ok := j.(db.GroupJournal)
	if !ok {
		return nil, fmt.Errorf("journal %T does not group-commit", j)
	}
	return &timingJournal{GroupJournal: gj}, nil
}

func (t *timingJournal) AppendBatch(entries []db.Entry) error {
	wait, err := t.Stage(entries)
	if err != nil {
		return err
	}
	return wait()
}

func (t *timingJournal) Append(e db.Entry) error { return t.AppendBatch([]db.Entry{e}) }

func (t *timingJournal) Stage(entries []db.Entry) (func() error, error) {
	t.commits.Add(1)
	t.entries.Add(int64(len(entries)))
	start := time.Now()
	wait, err := t.GroupJournal.Stage(entries)
	if err != nil {
		return nil, err
	}
	return func() error {
		err := wait()
		d := float64(time.Since(start))
		t.mu.Lock()
		t.waits = append(t.waits, d)
		t.mu.Unlock()
		return err
	}, nil
}

func (t *timingJournal) reset() {
	t.commits.Store(0)
	t.entries.Store(0)
	t.mu.Lock()
	t.waits = t.waits[:0]
	t.mu.Unlock()
}

// --- the in-process stack ---------------------------------------------------------

// stack is the daemon's assembly (shards → ledger → bank) built inside
// the benchmark process over journals of the caller's choosing, with
// the synthetic population enrolled and funded.
type stack struct {
	pop      *population
	trust    *pki.TrustStore
	bankID   *pki.Identity
	gsp      *pki.Identity
	enrolled int // consumers enrolled
	journals []*timingJournal
	stores   []*db.Store
	ledger   *shard.Ledger
	bank     *core.Bank
}

const ladderAdmin = "CN=banker,O=VO-Bench"

// ladderIdentities are issued once per ladder run and shared by every
// stack (key generation is not what any rung measures).
type ladderIdentities struct {
	ca     *pki.CA
	bankID *pki.Identity
	gsp    *pki.Identity
	banker *pki.Identity
}

func newLadderIdentities() (*ladderIdentities, error) {
	ca, err := pki.NewCA("VO-Bench CA", "VO-Bench", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	ids := &ladderIdentities{ca: ca}
	if ids.bankID, err = ca.Issue(pki.IssueOptions{CommonName: "bank", Organization: "VO-Bench", IsServer: true}); err != nil {
		return nil, err
	}
	if ids.gsp, err = ca.Issue(pki.IssueOptions{CommonName: "gsp-0", Organization: "VO-Bench"}); err != nil {
		return nil, err
	}
	if ids.banker, err = ca.Issue(pki.IssueOptions{CommonName: "banker", Organization: "VO-Bench"}); err != nil {
		return nil, err
	}
	return ids, nil
}

// newStack builds a two-shard bank; journal(i) supplies shard i's
// journal. Every provider and the first `consumers` consumers are
// enrolled and funded (all of them on a volatile stack; a stack on
// fsynced journals enrols only as many as its rung touches).
func newStack(ids *ladderIdentities, journal func(i int) (db.Journal, error), consumers int) (*stack, error) {
	s := &stack{pop: syntheticPopulation(), enrolled: consumers, bankID: ids.bankID, gsp: ids.gsp,
		trust: pki.NewTrustStore(ids.ca.Certificate())}
	for i := 0; i < numShards; i++ {
		j, err := journal(i)
		if err != nil {
			return nil, err
		}
		tj, err := newTimingJournal(j)
		if err != nil {
			return nil, err
		}
		st, err := db.Open(tj)
		if err != nil {
			return nil, err
		}
		s.journals = append(s.journals, tj)
		s.stores = append(s.stores, st)
	}
	var err error
	if s.ledger, err = shard.New(s.stores, shard.Config{}); err != nil {
		return nil, err
	}
	s.bank, err = core.NewBankWithLedger(s.ledger, core.BankConfig{
		Identity: s.bankID, Trust: s.trust, Admins: []string{ladderAdmin},
	})
	if err != nil {
		return nil, err
	}
	// Enrol in account-number order so the bank's IDs are the synthetic
	// population's; provider 0 is the real gsp-0 identity.
	all := append(append([]account(nil), s.pop.providers...), s.pop.consumers[:consumers]...)
	s.pop.providers[0].Cert = s.gsp.SubjectName()
	all[0].Cert = s.gsp.SubjectName()
	for k, a := range all {
		got, err := s.ledger.CreateAccount(a.Cert, "VO-Bench", "")
		if err != nil {
			return nil, err
		}
		if got.AccountID != a.ID {
			return nil, fmt.Errorf("in-process bank allocated %s, synthetic population expects %s", got.AccountID, a.ID)
		}
		amount := currency.FromG(consumerFundsG)
		if k < numProviders {
			amount = currency.FromG(providerFundsG)
		}
		if err := s.ledger.Deposit(a.ID, amount); err != nil {
			return nil, err
		}
	}
	s.resetCounts()
	return s, nil
}

func memJournals(int) (db.Journal, error) { return db.NewMemJournal(), nil }

func (s *stack) resetCounts() {
	for _, j := range s.journals {
		j.reset()
	}
}

func (s *stack) commits() (n int64) {
	for _, j := range s.journals {
		n += j.commits.Load()
	}
	return n
}

func (s *stack) entries() (n int64) {
	for _, j := range s.journals {
		n += j.entries.Load()
	}
	return n
}

func (s *stack) close() {
	for _, st := range s.stores {
		st.Close()
	}
}

// localPair / crossPair pick a (consumer, provider) pair on the same /
// on different shards, round-robin over the population so no row is
// hot.
func (s *stack) pair(k int, cross bool) (from, to accounts.ID) {
	c := k % s.enrolled
	sh := s.pop.consumerShard(c)
	if cross {
		sh = (sh + 1) % numShards
	}
	side := s.pop.provBy[sh]
	return s.pop.consumers[c].ID, s.pop.providers[side[k%len(side)]].ID
}

// --- the ladder -------------------------------------------------------------------

// ladder accumulates per-layer metrics and the summary span of each
// rung.
type ladder struct {
	size     ladderSize
	workload string
	seed     uint64
	dir      string
	ids      *ladderIdentities
	m        map[string]float64 // the per-layer metrics
	aux      map[string]float64 // solo-path measurements that only feed coverage
	rungs    []rung
	clamped  []string // self times that came out negative and were reported as 0
}

// rung is one measured ladder step: Median is what was timed, Parent
// the rung that calls it.
type rung struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Ns     float64 `json:"median_ns"`
	Iters  int     `json:"iterations"`
}

func (l *ladder) rung(name, parent string, ns float64, iters int) float64 {
	l.rungs = append(l.rungs, rung{Name: name, Parent: parent, Ns: ns, Iters: iters})
	return ns
}

// timed runs fn n times, records the median as a rung and, when metric
// is set, reports it divided by per (1e3: µs, 1e6: ms).
func (l *ladder) timed(metric string, per float64, name, parent string, n int, fn func() error) (float64, error) {
	ns, err := medianNs(n, fn)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	l.rung(name, parent, ns, n)
	if metric != "" {
		l.m[metric] = ns / per
	}
	return ns, nil
}

// self records metric = (rung − children) in µs, never below zero.
func (l *ladder) self(metric string, rungNs float64, childrenNs ...float64) {
	v := rungNs
	for _, c := range childrenNs {
		v -= c
	}
	if v < 0 {
		l.clamped = append(l.clamped, fmt.Sprintf("%s (%.1f µs)", metric, v/1e3))
		v = 0
	}
	l.m[metric] = v / 1e3
}

// runLadder measures every rung and returns the per-layer metrics. The
// workload selects the wire shapes and the solo path that coverage is
// computed for; soloP50Ms is that path's measured latency against the
// daemon (0 skips coverage).
func runLadder(workload string, seed uint64, dir string, size ladderSize, soloP50Ms, daemonPingUs float64) (*ladder, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	ids, err := newLadderIdentities()
	if err != nil {
		return nil, err
	}
	l := &ladder{size: size, workload: workload, seed: seed, dir: dir, ids: ids, m: make(map[string]float64), aux: make(map[string]float64)}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"device", l.device}, {"pki+payment+rur", l.crypto}, {"db", l.db}, {"db history", l.history},
		{"accounts+shard+core", l.core}, {"client", l.client}, {"wire", l.wire},
		{"usage", l.usage}, {"micropay", l.micropay},
	}
	for _, st := range steps {
		if err := st.fn(); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", st.name, err)
		}
	}
	for _, w := range workloadNames {
		l.m["ladder.coverage."+w] = 0
	}
	if daemonPingUs > 0 {
		// Against the daemon a round trip also crosses two processes; that
		// is the overhead the solo path really pays.
		l.m["core.rpc_overhead_us"] = daemonPingUs
	}
	if soloP50Ms > 0 {
		l.m["ladder.coverage."+workload] = l.explained(workload) / 1e6 / soloP50Ms
	}
	return l, nil
}

// device is the floor under every durable commit: a raw 4 KiB append +
// fsync on the directory the daemon's data lives in.
func (l *ladder) device() error {
	f, err := os.OpenFile(filepath.Join(l.dir, "fsync.probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 4096)
	_, err = l.timed("device.fsync_us_p50", 1e3, "device.fsync", "db.commit_durable", l.size.slowIters, func() error {
		if _, err := f.Write(block); err != nil {
			return err
		}
		return f.Sync()
	})
	return err
}

// crypto prices the signature, instrument and RUR primitives.
func (l *ladder) crypto() error {
	now := time.Now()
	trust := pki.NewTrustStore(l.ids.ca.Certificate())
	gen := newOpGen(syntheticPopulation(), l.seed, "pay_after", soloCaller)
	receipt := core.TransferReceipt{TransactionID: 1, Drawer: gen.pop.consumers[0].ID, Recipient: gen.pop.providers[0].ID,
		Amount: currency.FromMicro(500), Currency: currency.GridDollar, Date: now}
	if _, err := l.timed("pki.sign_us", 1e3, "pki.Sign", "core.Bank.DirectTransfer", l.size.iters, func() error {
		_, err := pki.Sign(l.ids.bankID, core.ReceiptContext, receipt)
		return err
	}); err != nil {
		return err
	}
	signed, err := pki.Sign(l.ids.bankID, core.ReceiptContext, receipt)
	if err != nil {
		return err
	}
	if _, err := l.timed("pki.verify_us", 1e3, "pki.Signed.Verify", "payment.VerifyCheque", l.size.iters, func() error {
		var out core.TransferReceipt
		_, err := signed.Verify(trust, core.ReceiptContext, now, &out)
		return err
	}); err != nil {
		return err
	}

	cheque := payment.Cheque{Serial: "ladder-serial", DrawerAccountID: gen.pop.consumers[0].ID,
		DrawerCert: gen.pop.consumers[0].Cert, PayeeCert: l.ids.gsp.SubjectName(), Limit: currency.FromG(chequeLimitG),
		Currency: currency.GridDollar, IssuedAt: now, Expires: now.Add(time.Hour)}
	if _, err := l.timed("payment.cheque_issue_us", 1e3, "payment.IssueCheque", "core.Bank.RequestCheque", l.size.iters, func() error {
		_, err := payment.IssueCheque(l.ids.bankID, cheque)
		return err
	}); err != nil {
		return err
	}
	sc, err := payment.IssueCheque(l.ids.bankID, cheque)
	if err != nil {
		return err
	}
	if _, err := l.timed("payment.cheque_verify_us", 1e3, "payment.VerifyCheque", "core.Bank.RedeemCheque", l.size.iters, func() error {
		_, err := payment.VerifyCheque(sc, trust, l.ids.gsp.SubjectName(), now)
		return err
	}); err != nil {
		return err
	}

	chain, err := payment.NewChain(gen.pop.consumers[0].ID, gen.pop.consumers[0].Cert, l.ids.gsp.SubjectName(),
		chainLength, currency.FromMicro(chainPerWordU), currency.GridDollar, now, time.Hour)
	if err != nil {
		return err
	}
	signedChain, err := payment.IssueChain(l.ids.bankID, chain.Commitment)
	if err != nil {
		return err
	}
	if _, err := l.timed("payment.chain_verify_us", 1e3, "payment.VerifyChain", "micropay.Pipeline.Submit", l.size.iters, func() error {
		_, _, err := payment.VerifyChain(signedChain, trust, l.ids.gsp.SubjectName(), now)
		return err
	}); err != nil {
		return err
	}
	k := 0
	if _, err := l.timed("payment.word_verify_ns_per_tick", claimEvery, "payment.VerifyWordAfter", "micropay.Pipeline.Submit", l.size.iters, func() error {
		from := claimEvery * (k % (chainLength/claimEvery - 1))
		k++
		var anchor []byte
		if from > 0 {
			anchor, _ = chain.Word(from)
		}
		word, _ := chain.Word(from + claimEvery)
		return payment.VerifyWordAfter(&chain.Commitment, from, anchor, from+claimEvery, word)
	}); err != nil {
		return err
	}

	raw, _ := gen.pricedUsageRecord("ladder-job", gen.pop.consumers[0].Cert, gen.pop.providers[0].Cert)
	if _, err := l.timed("rur.decode_us", 1e3, "rur.Decode", "usage.Pipeline.Submit", l.size.iters, func() error {
		_, err := rur.Decode(raw)
		return err
	}); err != nil {
		return err
	}
	rec, err := rur.Decode(raw)
	if err != nil {
		return err
	}
	if _, err := l.timed("rur.price_us", 1e3, "rur.Price", "usage.Pipeline.Submit", l.size.iters, func() error {
		_, err := rur.Price(rec, benchRates)
		return err
	}); err != nil {
		return err
	}
	return nil
}

// transferShapedTx performs the reads and writes of one keyed transfer
// — dedup probe, two account read-modify-writes, two TRANSACTION rows,
// the TRANSFER row and the dedup marker — with opaque values of the
// real rows' sizes, so it prices the store without the accounts layer's
// encoding.
func transferShapedTx(st *db.Store, k int, acct, txn, xfer []byte) error {
	a, b := fmt.Sprintf("a%03d", k%500), fmt.Sprintf("b%03d", k%500)
	id := fmt.Sprintf("%020d", k)
	return st.Update(func(tx *db.Tx) error {
		if _, err := tx.Get("dedup", id); err != nil && !errors.Is(err, db.ErrNoRecord) {
			return err
		}
		for _, key := range []string{a, b} {
			if _, err := tx.Get("accounts", key); err != nil {
				return err
			}
			if err := tx.Put("accounts", key, acct); err != nil {
				return err
			}
		}
		if err := tx.Insert("transactions", id+"/"+a, txn); err != nil {
			return err
		}
		if err := tx.Insert("transactions", id+"/"+b, txn); err != nil {
			return err
		}
		if err := tx.Insert("dedup", id, txn); err != nil {
			return err
		}
		return tx.Insert("transfers", id, xfer)
	})
}

func seedShapedStore(st *db.Store, acct []byte) error {
	for _, t := range []string{"accounts", "transactions", "transfers", "dedup"} {
		if err := st.EnsureTable(t); err != nil {
			return err
		}
	}
	return st.Update(func(tx *db.Tx) error {
		for i := 0; i < 500; i++ {
			if err := tx.Put("accounts", fmt.Sprintf("a%03d", i), acct); err != nil {
				return err
			}
			if err := tx.Put("accounts", fmt.Sprintf("b%03d", i), acct); err != nil {
				return err
			}
		}
		return nil
	})
}

// db prices the store: a transfer-shaped transaction on a volatile
// journal, the same transaction made durable (one committer, then 32),
// and a point read.
func (l *ladder) db() error {
	acct, txn, xfer := bytes.Repeat([]byte("a"), 260), bytes.Repeat([]byte("t"), 130), bytes.Repeat([]byte("x"), 190)
	vol, err := db.Open(db.NewMemJournal())
	if err != nil {
		return err
	}
	defer vol.Close()
	if err := seedShapedStore(vol, acct); err != nil {
		return err
	}
	k := 0
	if _, err := l.timed("db.update_volatile_us", 1e3, "db.Store.Update(volatile)", "accounts.Manager.Transfer", l.size.iters, func() error { k++; return transferShapedTx(vol, k, acct, txn, xfer) }); err != nil {
		return err
	}
	l.m["db.get_ns"] = l.rung("db.Store.Get", "db.Store.Update(volatile)", medianNsBatched(l.size.iters*10, 100, func() {
		_, _ = vol.Get("accounts", "a123")
	}), l.size.iters*10)

	cfs := &countingFS{FS: db.OSFS()}
	fj, err := db.OpenFileJournalCodecFS(cfs, filepath.Join(l.dir, "ladder-db.wal"), true, wire.CodecBin1)
	if err != nil {
		return err
	}
	tj, err := newTimingJournal(fj)
	if err != nil {
		return err
	}
	dur, err := db.Open(tj)
	if err != nil {
		return err
	}
	defer dur.Close()
	if err := seedShapedStore(dur, acct); err != nil {
		return err
	}
	if _, err := l.timed("db.commit_durable_solo_us", 1e3, "db.commit_durable", "db.Store.Update(volatile)", l.size.slowIters, func() error { k++; return transferShapedTx(dur, k, acct, txn, xfer) }); err != nil {
		return err
	}

	// 32 committers on one journal: how long a commit waits for its
	// group's fsync, and how many commits share one.
	tj.reset()
	syncs0 := cfs.syncs.Load()
	var next atomic.Int64
	next.Store(int64(k))
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	per := max(1, l.size.slowIters/4)
	for g := 0; g < numCallers; g++ {
		goSafe(&wg, func() {
			for i := 0; i < per; i++ {
				if err := transferShapedTx(dur, int(next.Add(1)), acct, txn, xfer); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		})
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	tj.mu.Lock()
	waits := append([]float64(nil), tj.waits...)
	tj.mu.Unlock()
	l.m["db.journal_wait_p50_us"] = l.rung("db.journal_wait(32 committers)", "db.commit_durable", median(waits), len(waits)) / 1e3
	l.m["db.group_commit_batch_mean"] = float64(tj.commits.Load()) / float64(cfs.syncs.Load()-syncs0)
	return nil
}

// history prices recovery: replaying a journal of real transfers,
// writing its checkpoint, and loading that checkpoint.
func (l *ladder) history() error {
	walPath, ckptPath := filepath.Join(l.dir, "ladder-history.wal"), filepath.Join(l.dir, "ladder-history.ckpt")
	var entries, rows int64
	build := func() error {
		os.Remove(walPath)
		j, err := db.OpenFileJournalCodec(walPath, false, wire.CodecBin1)
		if err != nil {
			return err
		}
		tj, err := newTimingJournal(j)
		if err != nil {
			return err
		}
		st, err := db.Open(tj)
		if err != nil {
			return err
		}
		mgr, err := accounts.NewManager(st, accounts.Config{})
		if err != nil {
			return err
		}
		var ids [16]accounts.ID
		for i := range ids {
			a, err := mgr.CreateAccount(fmt.Sprintf("CN=h-%d", i), "", "")
			if err != nil {
				return err
			}
			if err := mgr.Admin().Deposit(a.AccountID, currency.FromG(1000)); err != nil {
				return err
			}
			ids[i] = a.AccountID
		}
		for k := 0; k < l.size.history; k++ {
			if _, err := mgr.Transfer(ids[k%16], ids[(k+5)%16], currency.FromMicro(10), accounts.TransferOptions{DedupKey: fmt.Sprintf("h-%d", k)}); err != nil {
				return err
			}
		}
		entries = tj.entries.Load()
		rows = 0
		for _, t := range st.Tables() {
			n, err := st.Count(t)
			if err != nil {
				return err
			}
			rows += int64(n)
		}
		return st.Close()
	}
	if err := build(); err != nil {
		return err
	}
	const reps = 5
	var replay, write, load []float64
	for r := 0; r < reps; r++ {
		os.Remove(ckptPath)
		j, err := db.OpenFileJournalCodec(walPath, false, wire.CodecBin1)
		if err != nil {
			return err
		}
		t := time.Now()
		st, err := db.Open(j)
		if err != nil {
			return err
		}
		replay = append(replay, float64(time.Since(t)))
		t = time.Now()
		if _, err := st.Checkpoint(ckptPath); err != nil {
			return err
		}
		write = append(write, float64(time.Since(t)))
		if err := st.Close(); err != nil {
			return err
		}
		// Load the checkpoint over the same journal: everything in it is
		// covered, so this times the checkpoint read plus a skipped tail.
		j, err = db.OpenFileJournalCodec(walPath, false, wire.CodecBin1)
		if err != nil {
			return err
		}
		t = time.Now()
		st, _, err = db.OpenWithCheckpointFS(db.OSFS(), ckptPath, j)
		if err != nil {
			return err
		}
		load = append(load, float64(time.Since(t)))
		if err := st.Close(); err != nil {
			return err
		}
	}
	l.m["db.replay_us_per_kentry"] = l.rung("db.Open(journal replay)", "", median(replay), reps) / 1e3 / (float64(entries) / 1e3)
	l.m["db.checkpoint_write_ms"] = l.rung("db.Store.Checkpoint", "", median(write), reps) / 1e6
	l.m["db.checkpoint_load_us_per_krow"] = l.rung("db.OpenWithCheckpointFS", "", median(load), reps) / 1e3 / (float64(rows) / 1e3)
	return nil
}

// core climbs accounts → shard → core on one volatile stack, then
// prices a cross-shard transfer on a durable one.
func (l *ladder) core() error {
	s, err := newStack(l.ids, memJournals, numConsumers)
	if err != nil {
		return err
	}
	defer s.close()
	n := l.size.iters
	amount := currency.FromMicro(7)
	k := 0

	// The transfer rungs and the receipt signature alternate inside one
	// loop, rotating which goes first, so each sees the same cache and
	// heap state and their differences are the layers' own work rather
	// than measurement order.
	mgr, local, direct, sign := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var mgrCommits, mgrEntries, directCommits int64
	receipt := core.TransferReceipt{TransactionID: 1, Amount: amount, Currency: currency.GridDollar, Date: time.Now()}
	for i := 0; i < n; i++ {
		k++
		from, to := s.pair(k, false)
		receipt.Drawer, receipt.Recipient = from, to
		steps := [4]func() error{
			func() error {
				c0, e0 := s.commits(), s.entries()
				t := time.Now()
				_, err := s.ledger.ShardManager(s.ledger.ShardFor(from)).Transfer(from, to, amount, accounts.TransferOptions{DedupKey: fmt.Sprintf("m-%d", k)})
				mgr[i] = float64(time.Since(t))
				mgrCommits, mgrEntries = mgrCommits+s.commits()-c0, mgrEntries+s.entries()-e0
				return err
			},
			func() error {
				t := time.Now()
				_, err := s.ledger.Transfer(from, to, amount, accounts.TransferOptions{DedupKey: fmt.Sprintf("l-%d", k)})
				local[i] = float64(time.Since(t))
				return err
			},
			func() error {
				c0 := s.commits()
				t := time.Now()
				_, err := s.bank.DirectTransfer(ladderAdmin, &core.DirectTransferRequest{FromAccountID: from, ToAccountID: to,
					Amount: amount, IdempotencyKey: fmt.Sprintf("d-%d", k)})
				direct[i] = float64(time.Since(t))
				directCommits += s.commits() - c0
				return err
			},
			func() error {
				t := time.Now()
				_, err := pki.Sign(s.bankID, core.ReceiptContext, receipt)
				sign[i] = float64(time.Since(t))
				return err
			},
		}
		for j := range steps {
			if err := steps[(i+j)%len(steps)](); err != nil {
				return err
			}
		}
	}
	mgrNs, localNs, dtNs := median(mgr), median(local), median(direct)
	l.rung("accounts.Manager.Transfer", "shard.Ledger.Transfer(local)", mgrNs, n)
	l.self("accounts.transfer_self_us", mgrNs, l.m["db.update_volatile_us"]*1e3)
	l.m["accounts.journal_entries_per_transfer"] = float64(mgrEntries) / float64(mgrCommits)
	l.rung("shard.Ledger.Transfer(local)", "core.Bank.DirectTransfer", localNs, n)
	l.self("shard.local_transfer_self_us", localNs, mgrNs)
	l.rung("core.Bank.DirectTransfer", "core.Client.DirectTransfer", dtNs, n)
	l.self("core.direct_transfer_self_us", dtNs, localNs, median(sign))
	l.aux["commits.pay_before"] = float64(directCommits) / float64(n)
	l.aux["inprocess_us.pay_before"] = dtNs / 1e3
	l.m["shard.route_ns"] = l.rung("shard.Ring.ShardFor", "shard.Ledger.Transfer(local)", medianNsBatched(n*10, 100, func() {
		_ = s.ledger.ShardFor(s.pop.consumers[k%numConsumers].ID)
	}), n*10)

	// Cheque issue and redeem alternate, as on the wire: every cheque
	// issued is redeemed with a claim carrying a generated RUR.
	gen := newOpGen(s.pop, l.seed, "pay_after", soloCaller)
	gsp := s.gsp.SubjectName()
	var issue, redeem []float64
	s.resetCounts()
	for i := 0; i < n; i++ {
		op := gen.nextCheque()
		t := time.Now()
		resp, err := s.bank.RequestCheque(ladderAdmin, &core.RequestChequeRequest{AccountID: op.Drawer,
			Amount: currency.FromG(chequeLimitG), PayeeCert: gsp, TTL: time.Hour})
		if err != nil {
			return err
		}
		issue = append(issue, float64(time.Since(t)))
		req := &core.RedeemChequeRequest{Cheque: resp.Cheque,
			Claim: payment.ChequeClaim{Serial: resp.Cheque.Cheque.Serial, Amount: op.Amount, RUR: op.RUR}}
		t = time.Now()
		if _, err := s.bank.RedeemCheque(gsp, req); err != nil {
			return err
		}
		redeem = append(redeem, float64(time.Since(t)))
	}
	issueNs, redeemNs := median(issue), median(redeem)
	l.rung("core.Bank.RequestCheque", "core.Client.RequestCheque", issueNs, n)
	l.rung("core.Bank.RedeemCheque", "core.Client.RedeemCheque", redeemNs, n)
	// RequestCheque calls the ledger's fund lock and the cheque signer;
	// RedeemCheque verifies the cheque and settles from locked funds
	// (which costs what a local transfer costs, plus the unlock).
	l.self("core.request_cheque_self_us", issueNs, l.m["payment.cheque_issue_us"]*1e3)
	l.self("core.redeem_cheque_self_us", redeemNs, l.m["payment.cheque_verify_us"]*1e3, localNs)
	l.aux["commits.pay_after"] = float64(s.commits()) / float64(n)
	l.aux["inprocess_us.pay_after"] = (issueNs + redeemNs + l.m["pki.sign_us"]*1e3) / 1e3

	// Cross-shard on real journals: the 2PC steps are separate durable
	// commits, so the fsync count is the point.
	cfs := &countingFS{FS: db.OSFS()}
	ds, err := newStack(l.ids, func(i int) (db.Journal, error) {
		return db.OpenFileJournalCodecFS(cfs, filepath.Join(l.dir, fmt.Sprintf("ladder-shard-%d.wal", i)), true, wire.CodecBin1)
	}, 64)
	if err != nil {
		return err
	}
	defer ds.close()
	syncs0 := cfs.syncs.Load()
	if _, err := l.timed("shard.cross_transfer_us", 1e3, "shard.Ledger.Transfer(cross, durable)", "core.Bank.DirectTransfer", l.size.slowIters, func() error {
		k++
		from, to := ds.pair(k, true)
		_, err := ds.ledger.Transfer(from, to, amount, accounts.TransferOptions{DedupKey: fmt.Sprintf("x-%d", k)})
		return err
	}); err != nil {
		return err
	}
	l.m["shard.cross_fsyncs_per_transfer"] = float64(cfs.syncs.Load()-syncs0) / float64(l.size.slowIters)
	return nil
}

// client prices the wire round trip and the read path over real
// loopback TLS against an in-process server.
func (l *ladder) client() error {
	s, err := newStack(l.ids, memJournals, numConsumers)
	if err != nil {
		return err
	}
	defer s.close()
	// Give the read path something to read.
	for k := 0; k < 200; k++ {
		from, to := s.pair(k, false)
		if _, err := s.ledger.Transfer(from, to, currency.FromMicro(3), accounts.TransferOptions{}); err != nil {
			return err
		}
	}
	srv, err := core.NewServer(s.bank, s.bankID)
	if err != nil {
		return err
	}
	srv.WireCodecs = []string{wire.CodecBin1, wire.CodecJSON}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns when Close shuts the listener
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	dial := func() (*core.Client, error) {
		c, err := core.Dial(ln.Addr().String(), l.ids.banker, s.trust)
		if err != nil {
			return nil, err
		}
		c.OfferCodecs = []string{wire.CodecBin1, wire.CodecJSON}
		return c, nil
	}
	if _, err := l.timed("pki.tls_handshake_ms", 1e6, "core.Client dial (TLS handshake + codec offer)", "", l.size.slowIters, func() error {
		c, err := dial()
		if err != nil {
			return err
		}
		defer c.Close()
		_, err = c.Ping() // first call dials: TCP + mutual TLS 1.3 + codec offer
		return err
	}); err != nil {
		return err
	}

	c, err := dial()
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := l.timed("core.rpc_overhead_us", 1e3, "core.Client.Ping", "", l.size.iters, func() error { _, err := c.Ping(); return err }); err != nil {
		return err
	}
	k := 0
	if _, err := l.timed("core.account_details_us", 1e3, "core.Client.AccountDetails", "", l.size.iters, func() error {
		k++
		_, err := c.AccountDetails(s.pop.consumers[k%numConsumers].ID)
		return err
	}); err != nil {
		return err
	}
	// A statement scans the whole transaction history, so both statement
	// rungs read the same fixed one: this stack's 200 transfers.
	reads := max(1, l.size.slowIters/4)
	if _, err := l.timed("core.statement_us", 1e3, "core.Client.AccountStatement", "", reads, func() error {
		k++
		_, err := c.AccountStatement(s.pop.consumers[k%numConsumers].ID, time.Time{}, time.Now())
		return err
	}); err != nil {
		return err
	}
	if _, err := l.timed("accounts.statement_us", 1e3, "accounts.Manager.Statement", "core.Client.AccountStatement", reads, func() error {
		k++
		id := s.pop.consumers[k%numConsumers].ID
		_, err := s.ledger.ShardManager(s.ledger.ShardFor(id)).Statement(id, time.Time{}, time.Now())
		return err
	}); err != nil {
		return err
	}
	return nil
}

// frame is one wire message of an operation: the typed body and how to
// decode it again.
type frame struct {
	op       string
	body     any
	response bool
	fresh    func() any // a zero value of body's type to decode into
}

// workloadFrames returns the request and response frames one operation
// of the workload puts on the wire, built by running the operation
// against an in-process bank.
func (l *ladder) workloadFrames(workload string) ([]frame, error) {
	s, err := newStack(l.ids, memJournals, numConsumers)
	if err != nil {
		return nil, err
	}
	defer s.close()
	gen := newOpGen(s.pop, l.seed, workload, soloCaller)
	switch workload {
	case "pay_before":
		op := gen.nextTransfer()
		req := &core.DirectTransferRequest{FromAccountID: op.From, ToAccountID: op.To, Amount: op.Amount, IdempotencyKey: op.Key}
		resp, err := s.bank.DirectTransfer(ladderAdmin, req)
		if err != nil {
			return nil, err
		}
		return []frame{
			{op: core.OpDirectTransfer, body: req, fresh: func() any { return new(core.DirectTransferRequest) }},
			{op: core.OpDirectTransfer, body: resp, response: true, fresh: func() any { return new(core.DirectTransferResponse) }},
		}, nil
	case "pay_after":
		op := gen.nextCheque()
		ireq := &core.RequestChequeRequest{AccountID: op.Drawer, Amount: currency.FromG(chequeLimitG), PayeeCert: s.gsp.SubjectName(), TTL: time.Hour}
		iresp, err := s.bank.RequestCheque(ladderAdmin, ireq)
		if err != nil {
			return nil, err
		}
		rreq := &core.RedeemChequeRequest{Cheque: iresp.Cheque, Claim: payment.ChequeClaim{Serial: iresp.Cheque.Cheque.Serial, Amount: op.Amount, RUR: op.RUR}}
		rresp, err := s.bank.RedeemCheque(s.gsp.SubjectName(), rreq)
		if err != nil {
			return nil, err
		}
		return []frame{
			{op: core.OpRequestCheque, body: ireq, fresh: func() any { return new(core.RequestChequeRequest) }},
			{op: core.OpRequestCheque, body: iresp, response: true, fresh: func() any { return new(core.RequestChequeResponse) }},
			{op: core.OpRedeemCheque, body: rreq, fresh: func() any { return new(core.RedeemChequeRequest) }},
			{op: core.OpRedeemCheque, body: rresp, response: true, fresh: func() any { return new(core.RedeemChequeResponse) }},
		}, nil
	case "usage_batch":
		op := gen.nextUsage(usagePerCall)
		return []frame{
			{op: core.OpUsageSubmit, body: &core.UsageSubmitRequest{Charges: op.Subs}, fresh: func() any { return new(core.UsageSubmitRequest) }},
			{op: core.OpUsageSubmit, body: &core.UsageSubmitResponse{Result: usage.SubmitResult{Accepted: usagePerCall}}, response: true,
				fresh: func() any { return new(core.UsageSubmitResponse) }},
		}, nil
	case "pay_as_you_go":
		claims := make([]micropay.Claim, claimsPerCall)
		for i := range claims {
			claims[i] = micropay.Claim{Serial: "AAAAAAAAAAAAAAAAAAAAAA", Index: (i + 1) * claimEvery, Word: bytes.Repeat([]byte{byte(i)}, 32)}
		}
		return []frame{
			{op: core.OpMicropaySubmit, body: &core.MicropaySubmitRequest{Claims: claims}, fresh: func() any { return new(core.MicropaySubmitRequest) }},
			{op: core.OpMicropaySubmit, body: &core.MicropaySubmitResponse{Result: micropay.SubmitResult{Accepted: claimsPerCall, AcceptedTicks: claimsPerCall * claimEvery}},
				response: true, fresh: func() any { return new(core.MicropaySubmitResponse) }},
		}, nil
	}
	return nil, fmt.Errorf("no wire shape for workload %q", workload)
}

// encodeFrame does what a sender does: encode the body for a bin1
// connection and append the framed message.
func encodeFrame(buf *bytes.Buffer, f frame) error {
	body, err := wire.EncodeWith(wire.Bin1, f.body)
	if err != nil {
		return err
	}
	if f.response {
		return wire.Bin1.AppendFrame(buf, &wire.Response{ID: 42, OK: true, Body: body})
	}
	return wire.Bin1.AppendFrame(buf, &wire.Request{ID: 42, Op: f.op, DeadlineMS: 120000, Body: body})
}

// decodeFrame does what a receiver does: parse the frame, then the body
// into its typed form.
func decodeFrame(raw []byte, f frame) error {
	var body []byte
	if f.response {
		var resp wire.Response
		if err := wire.Bin1.Decode(bytes.NewReader(raw), &resp); err != nil {
			return err
		}
		body = resp.Body
	} else {
		var req wire.Request
		if err := wire.Bin1.Decode(bytes.NewReader(raw), &req); err != nil {
			return err
		}
		body = req.Body
	}
	return wire.Decode(body, f.fresh())
}

// wire prices bin1 framing for the workload's own request and response
// shapes, and the JSON long tail (a RedeemCheque body inside a bin1
// frame) on every workload.
func (l *ladder) wire() error {
	frames, err := l.workloadFrames(l.workload)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	encoded := make([][]byte, len(frames))
	var total int
	for i, f := range frames {
		buf.Reset()
		if err := encodeFrame(&buf, f); err != nil {
			return err
		}
		encoded[i] = append([]byte(nil), buf.Bytes()...)
		total += len(encoded[i])
	}
	l.m["wire.frame_bytes_per_op"] = float64(total)
	n := l.size.iters
	encNs, err := medianNs(n, func() error {
		for _, f := range frames {
			buf.Reset()
			if err := encodeFrame(&buf, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	decNs, err := medianNs(n, func() error {
		for i, f := range frames {
			if err := decodeFrame(encoded[i], f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	per := float64(len(frames))
	l.m["wire.encode_ns_per_frame"] = l.rung("wire.Bin1.AppendFrame", "core.Client.Ping", encNs, n) / per
	l.m["wire.decode_ns_per_frame"] = l.rung("wire.Bin1.Decode", "core.Client.Ping", decNs, n) / per
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		for k, f := range frames {
			buf.Reset()
			if err := encodeFrame(&buf, f); err != nil {
				return err
			}
			if err := decodeFrame(encoded[k], f); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	l.m["wire.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / float64(n) / per

	tail, err := l.workloadFrames("pay_after")
	if err != nil {
		return err
	}
	redeem := tail[2]
	_, err = l.timed("wire.longtail_encode_ns_per_frame", 1, "wire.Bin1.AppendFrame(JSON body)", "core.Client.Ping", n, func() error {
		buf.Reset()
		return encodeFrame(&buf, redeem)
	})
	return err
}

// spoolJournal opens an unsynced file journal through a byte-counting
// FS: exact spool bytes without paying an fsync per batch.
func (l *ladder) spoolStore(name string) (*db.Store, *countingFS, *timingJournal, error) {
	cfs := &countingFS{FS: db.OSFS()}
	path := filepath.Join(l.dir, name)
	os.Remove(path)
	j, err := db.OpenFileJournalCodecFS(cfs, path, false, wire.CodecBin1)
	if err != nil {
		return nil, nil, nil, err
	}
	tj, err := newTimingJournal(j)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := db.Open(tj)
	return st, cfs, tj, err
}

// usage prices the settlement pipeline in-process: intake (Submit) and
// settlement (Drain) apart, on a pipeline with no background workers.
func (l *ladder) usage() error {
	s, err := newStack(l.ids, memJournals, numConsumers)
	if err != nil {
		return err
	}
	defer s.close()
	spool, cfs, spoolJournal, err := l.spoolStore("ladder-usage.wal")
	if err != nil {
		return err
	}
	defer spool.Close()
	pipe, err := usage.New(usage.Config{Ledger: usage.WrapSharded(s.ledger), Spool: spool, Workers: -1, MaxPending: 1 << 20})
	if err != nil {
		return err
	}
	defer pipe.Close()
	gen := newOpGen(s.pop, l.seed, "usage_batch", soloCaller)
	// A round is a queue's worth of intake followed by one drain, so the
	// settler finds several charges per (shard, drawer) group as it does
	// behind a loaded daemon's queue.
	rounds := max(1, l.size.iters/ladderRound)
	var submit, settle []float64
	s.resetCounts()
	for r := 0; r < rounds; r++ {
		for b := 0; b < ladderRound/usagePerCall; b++ {
			op := gen.nextUsage(usagePerCall)
			t := time.Now()
			res, err := pipe.Submit(op.Subs)
			if err != nil {
				return err
			}
			submit = append(submit, float64(time.Since(t))/usagePerCall)
			if res.Accepted != usagePerCall {
				return fmt.Errorf("in-process usage intake accepted %d of %d", res.Accepted, usagePerCall)
			}
		}
		t := time.Now()
		if _, err := pipe.Drain(time.Minute); err != nil {
			return err
		}
		settle = append(settle, float64(time.Since(t))/ladderRound)
	}
	st := pipe.Status()
	charges := float64(rounds * ladderRound)
	if float64(st.Settled) != charges || st.Failed != 0 {
		return fmt.Errorf("in-process usage pipeline settled %d of %.0f (failed %d)", st.Settled, charges, st.Failed)
	}
	l.m["usage.submit_us_per_charge"] = l.rung("usage.Pipeline.Submit", "core.Client.UsageSubmit", median(submit), len(submit)) / 1e3
	l.m["usage.settle_us_per_charge"] = l.rung("usage.Pipeline.Drain", "core.Client.UsageDrain", median(settle), rounds) / 1e3
	l.m["usage.ledger_txs_per_kcharge"] = float64(s.commits()) / charges * 1e3
	l.m["usage.spool_bytes_per_charge"] = float64(cfs.bytes.Load()) / charges

	// The solo path: one charge, submit → settled.
	s.resetCounts()
	spoolJournal.reset()
	soloNs, err := medianNs(l.size.slowIters, func() error {
		if _, err := pipe.Submit(gen.nextUsage(1).Subs); err != nil {
			return err
		}
		_, err := pipe.Drain(time.Minute)
		return err
	})
	if err != nil {
		return err
	}
	l.aux["inprocess_us.usage_batch"] = soloNs / 1e3
	l.aux["commits.usage_batch"] = float64(s.commits()+spoolJournal.commits.Load()) / float64(l.size.slowIters)
	return nil
}

// micropay prices the streaming redemption pipeline the same way.
func (l *ladder) micropay() error {
	s, err := newStack(l.ids, memJournals, numConsumers)
	if err != nil {
		return err
	}
	defer s.close()
	spool, cfs, spoolJournal, err := l.spoolStore("ladder-micropay.wal")
	if err != nil {
		return err
	}
	defer spool.Close()
	pipe, err := micropay.New(micropay.Config{Redeemer: s.bank.ChainRedeemer(), FindAccount: s.ledger.FindByCertificate,
		Spool: spool, Workers: -1, MaxPending: 1 << 20})
	if err != nil {
		return err
	}
	defer pipe.Close()
	gen := newOpGen(s.pop, l.seed, "pay_as_you_go", soloCaller)
	type live struct {
		chain *payment.Chain
		next  int
	}
	open := func(local bool) (*live, error) {
		pick := gen.nextStream(local)
		resp, err := s.bank.RequestChain(ladderAdmin, &core.RequestChainRequest{AccountID: s.pop.consumers[pick.Consumer].ID,
			PayeeCert: s.pop.providers[pick.Provider].Cert, Length: chainLength, PerWord: currency.FromMicro(chainPerWordU), TTL: time.Hour})
		if err != nil {
			return nil, err
		}
		return &live{chain: &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}, next: claimEvery}, nil
	}
	streams := make([]*live, liveStreams)
	batch := func(perStream int, ss []*live, local bool) ([]micropay.Claim, error) {
		var out []micropay.Claim
		for i, st := range ss {
			if st == nil || st.next+(perStream-1)*claimEvery > chainLength {
				fresh, err := open(local)
				if err != nil {
					return nil, err
				}
				ss[i], st = fresh, fresh
			}
			for j := 0; j < perStream; j++ {
				word, err := st.chain.Word(st.next)
				if err != nil {
					return nil, err
				}
				out = append(out, micropay.Claim{Serial: st.chain.Commitment.Serial, Index: st.next, Word: word})
				st.next += claimEvery
			}
		}
		return out, nil
	}
	// As in the daemon workload, a Submit carries 16 claims for each of
	// two streams, rotating over the 64 live ones; a round spools a
	// queue's worth and drains once.
	rounds := max(1, l.size.iters/ladderRound)
	var submit, settle []float64
	s.resetCounts()
	at := 0
	for r := 0; r < rounds; r++ {
		for b := 0; b < ladderRound/claimsPerCall; b++ {
			claims, err := batch(claimsPerCall/streamsPerCaller, streams[at:at+streamsPerCaller], false)
			if err != nil {
				return err
			}
			at = (at + streamsPerCaller) % liveStreams
			t := time.Now()
			res, err := pipe.Submit("", claims)
			if err != nil {
				return err
			}
			submit = append(submit, float64(time.Since(t))/claimsPerCall)
			if res.Accepted != claimsPerCall {
				return fmt.Errorf("in-process micropay intake accepted %d of %d: %+v", res.Accepted, claimsPerCall, res.Rejected)
			}
		}
		t := time.Now()
		if _, err := pipe.Drain(time.Minute); err != nil {
			return err
		}
		settle = append(settle, float64(time.Since(t))/ladderRound)
	}
	st := pipe.Status()
	claimsN := float64(rounds * ladderRound)
	if float64(st.SettledTicks) != claimsN*claimEvery || st.Failed != 0 {
		return fmt.Errorf("in-process micropay pipeline settled %d of %.0f ticks (failed %d)", st.SettledTicks, claimsN*claimEvery, st.Failed)
	}
	l.m["micropay.submit_us_per_claim"] = l.rung("micropay.Pipeline.Submit", "core.Client.MicropaySubmit", median(submit), len(submit)) / 1e3
	l.m["micropay.settle_us_per_claim"] = l.rung("micropay.Pipeline.Drain", "core.Client.MicropayDrain", median(settle), rounds) / 1e3
	l.m["micropay.ledger_txs_per_kclaim"] = float64(st.Batches) / claimsN * 1e3
	l.m["micropay.spool_bytes_per_claim"] = float64(cfs.bytes.Load()) / claimsN

	solo := make([]*live, 1)
	s.resetCounts()
	spoolJournal.reset()
	soloNs, err := medianNs(l.size.slowIters, func() error {
		claims, err := batch(1, solo, true)
		if err != nil {
			return err
		}
		if _, err := pipe.Submit("", claims); err != nil {
			return err
		}
		_, err = pipe.Drain(time.Minute)
		return err
	})
	if err != nil {
		return err
	}
	l.aux["inprocess_us.pay_as_you_go"] = soloNs / 1e3
	l.aux["commits.pay_as_you_go"] = float64(s.commits()+spoolJournal.commits.Load()) / float64(l.size.slowIters)
	return nil
}

// explained is how many ns of the workload's solo critical path the
// ladder accounts for: the wire round trips, the in-process operation
// on volatile stores, and what durability adds per commit.
func (l *ladder) explained(workload string) float64 {
	rpc := l.m["core.rpc_overhead_us"]
	durable := l.m["db.commit_durable_solo_us"] - l.m["db.update_volatile_us"]
	if durable < 0 {
		durable = 0
	}
	calls := map[string]float64{"pay_before": 1, "pay_after": 2, "pay_as_you_go": 2, "usage_batch": 2}[workload]
	us := calls*rpc + l.aux["inprocess_us."+workload] + l.aux["commits."+workload]*durable
	return us * 1e3
}

// writeRungs saves the ladder's rungs — one summary span each: what was
// timed, what calls it, the median and the iteration count.
func writeRungs(path string, rungs []rung) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rungs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
