package node

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

// testVO is a throwaway VO: CA, bank and banker identities.
type testVO struct {
	ca     *pki.CA
	trust  *pki.TrustStore
	bank   *pki.Identity
	banker *pki.Identity
}

func newTestVO(t *testing.T) *testVO {
	t.Helper()
	ca, err := pki.NewCA("Node Test CA", "VO-N", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	v := &testVO{ca: ca, trust: pki.NewTrustStore(ca.Certificate())}
	v.bank = v.issue(t, "gridbank", true)
	v.banker = v.issue(t, "banker", false)
	return v
}

func (v *testVO) issue(t *testing.T, name string, server bool) *pki.Identity {
	t.Helper()
	id, err := v.ca.Issue(pki.IssueOptions{CommonName: name, Organization: "VO-N", IsServer: server})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// config is the production shape on dir: two shards, both pipelines,
// binary WAL. The pipelines run no workers, so what a test submits
// stays pending until it drains.
func (v *testVO) config(dir string) Config {
	return Config{
		Dir: dir, Shards: 2, WALCodec: wire.CodecBin1,
		Identity: v.bank, Trust: v.trust, Admins: []string{v.banker.SubjectName()},
		Usage:      &usage.Config{Workers: -1},
		Micropay:   &micropay.Config{Workers: -1},
		WireCodecs: []string{wire.CodecBin1, wire.CodecJSON},
		Heartbeat:  20 * time.Millisecond,
	}
}

func mustOpen(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serve starts the node's API on an ephemeral port.
func serve(t *testing.T, n *Node) string {
	t.Helper()
	ln := listen(t)
	go n.Serve(ln)
	return ln.Addr().String()
}

func (v *testVO) dial(t *testing.T, addr string, id *pki.Identity) *core.Client {
	t.Helper()
	c, err := core.Dial(addr, id, v.trust)
	if err != nil {
		t.Fatal(err)
	}
	c.OfferCodecs = []string{wire.CodecBin1, wire.CodecJSON}
	t.Cleanup(func() { c.Close() })
	return c
}

func testRates(provider string) *rur.RateCard {
	rates := map[rur.Item]currency.Rate{rur.ItemCPU: currency.PerHour(currency.Scale)}
	for _, item := range rur.AllItems {
		if _, ok := rates[item]; !ok {
			rates[item] = currency.ZeroRate
		}
	}
	return &rur.RateCard{Provider: provider, Currency: currency.GridDollar, Rates: rates}
}

// testCharge is a usage submission worth exactly 1 G$.
func testCharge(t *testing.T, id, consumer, provider string, drawer, recipient accounts.ID) usage.Submission {
	t.Helper()
	now := time.Now()
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: consumer},
		Job:      rur.JobDetails{JobID: id, Application: "node-test", Start: now.Add(-time.Hour), End: now},
		Resource: rur.ResourceDetails{Host: "h", CertificateName: provider, LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, 3600)
	raw, err := rur.Encode(rec, rur.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	return usage.Submission{ID: id, Drawer: drawer, Recipient: recipient, RUR: raw, Rates: testRates(provider)}
}

// books is everything a reboot must preserve.
type books struct {
	Accounts        []accounts.Account
	UsagePending    int
	MicropayPending int
}

func booksOf(t *testing.T, n *Node) books {
	t.Helper()
	accts, err := n.Ledger().Accounts()
	if err != nil {
		t.Fatal(err)
	}
	return books{accts, n.Usage().Status().Pending, n.Micropay().Status().Pending}
}

// TestServeCloseReopenKeepsTheBooks runs the production assembly end to
// end: every §3.3 payment model over a real TLS client, a Close that
// really closes, and reboots — with and without the startup checkpoint —
// that come back to identical balances, pending spool rows and a
// transaction-ID allocator above everything already issued.
func TestServeCloseReopenKeepsTheBooks(t *testing.T) {
	v := newTestVO(t)
	cfg := v.config(t.TempDir())
	n := mustOpen(t, cfg)
	addr := serve(t, n)

	alice, gsp := v.issue(t, "alice", false), v.issue(t, "gsp", false)
	ac, gc, bc := v.dial(t, addr, alice), v.dial(t, addr, gsp), v.dial(t, addr, v.banker)
	aAcct, err := ac.CreateAccount("VO-N", "")
	if err != nil {
		t.Fatal(err)
	}
	gAcct, err := gc.CreateAccount("VO-N", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.AdminDeposit(aAcct.AccountID, currency.FromG(100)); err != nil {
		t.Fatal(err)
	}
	// Pay-before: a direct transfer.
	xfer, err := ac.DirectTransfer(aAcct.AccountID, gAcct.AccountID, currency.FromG(10), "")
	if err != nil {
		t.Fatal(err)
	}
	// Pay-after: a cheque, partly redeemed.
	cheque, err := ac.RequestCheque(aAcct.AccountID, currency.FromG(20), gsp.SubjectName(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.RedeemCheque(cheque, &payment.ChequeClaim{Serial: cheque.Cheque.Serial, Amount: currency.FromG(15), RUR: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	// Usage: two charges accepted, none settled yet.
	subs := []usage.Submission{
		testCharge(t, "job-1", alice.SubjectName(), gsp.SubjectName(), aAcct.AccountID, gAcct.AccountID),
		testCharge(t, "job-2", alice.SubjectName(), gsp.SubjectName(), aAcct.AccountID, gAcct.AccountID),
	}
	if res, err := gc.UsageSubmit(subs); err != nil || res.Accepted != 2 {
		t.Fatalf("Usage.Submit = %+v, %v", res, err)
	}
	// Pay-as-you-go: a chain, three words claimed, none settled yet.
	chain, _, err := ac.RequestChain(aAcct.AccountID, gsp.SubjectName(), 10, currency.FromG(1), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	word, err := chain.Word(3)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := gc.MicropaySubmit([]micropay.Claim{{Serial: chain.Commitment.Serial, Index: 3, Word: word}}); err != nil || res.Accepted != 1 {
		t.Fatalf("Micropay.Submit = %+v, %v", res, err)
	}

	want := booksOf(t, n)
	if want.UsagePending != 2 || want.MicropayPending != 1 {
		t.Fatalf("pending before close = %d usage, %d micropay", want.UsagePending, want.MicropayPending)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(n.stores) != 4 {
		t.Fatalf("node opened %d stores, want 2 shards + 2 spools", len(n.stores))
	}
	for _, s := range n.stores {
		if _, err := s.Count("accounts"); !errors.Is(err, db.ErrClosed) {
			t.Errorf("store %s after Close answers %v, want ErrClosed", s.name, err)
		}
	}
	if _, err := ac.Ping(); err == nil {
		t.Error("server still answers after Close")
	}

	for _, checkpoint := range []bool{true, false} {
		cfg.Checkpoint = checkpoint
		n = mustOpen(t, cfg)
		if got := booksOf(t, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("books after reopen (checkpoint=%v):\n got %+v\nwant %+v", checkpoint, got, want)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The recovered rows still settle, exactly once, and fresh transfers
	// get fresh IDs.
	n = mustOpen(t, cfg)
	if _, err := n.Usage().Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Micropay().Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	g, err := n.Ledger().Details(gAcct.AccountID)
	if err != nil {
		t.Fatal(err)
	}
	if wantG := currency.FromG(10 + 15 + 2 + 3); g.AvailableBalance != wantG {
		t.Fatalf("gsp balance = %s, want %s", g.AvailableBalance, wantG)
	}
	tr, err := n.Ledger().Transfer(aAcct.AccountID, gAcct.AccountID, currency.FromG(1), accounts.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TransactionID <= xfer.TransactionID {
		t.Fatalf("transaction ID %d reused (already issued %d)", tr.TransactionID, xfer.TransactionID)
	}
}

// TestGoldenDataDirBoots boots a data directory written by the parent
// commit's gridbankd (testdata/datadir_32b1772/README has the recipe
// and the recorded state): two shard WALs and checkpoints, a pending
// and a pinned usage row, a pending micropay claim, the shards marker.
func TestGoldenDataDirBoots(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join("testdata", "datadir_32b1772")
	ents, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == "README" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	v := newTestVO(t)
	for _, checkpoint := range []bool{false, true} {
		cfg := v.config(dir)
		cfg.Checkpoint = checkpoint
		n := mustOpen(t, cfg)
		got := map[string]string{}
		accts, err := n.Ledger().Accounts()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range accts {
			got[a.CertificateName] = fmt.Sprintf("%s %s+%s", a.AccountID, a.AvailableBalance, a.LockedBalance)
		}
		if !reflect.DeepEqual(got, goldenAccounts) {
			t.Fatalf("checkpoint=%v accounts:\n got %v\nwant %v", checkpoint, got, goldenAccounts)
		}
		if us, ms := n.Usage().Status(), n.Micropay().Status(); us.Pending != 2 || us.Failed != 0 || ms.Pending != 1 || ms.Failed != 0 {
			t.Fatalf("checkpoint=%v queues: usage %+v micropay %+v", checkpoint, us, ms)
		}
		// The pinned row's transaction ID must stay reserved.
		if id := n.Ledger().AllocTxID(); id <= goldenPinnedTxID {
			t.Fatalf("checkpoint=%v allocator handed out %d, at or below pinned ID %d", checkpoint, id, goldenPinnedTxID)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Both usage rows settle exactly once: the pending one in a batch,
	// the pinned one under its pinned ID.
	n := mustOpen(t, v.config(dir))
	st, err := n.Usage().Drain(5 * time.Second)
	if err != nil || st.Settled != 2 || st.Failed != 0 {
		t.Fatalf("usage drain = %+v, %v", st, err)
	}
	if _, err := n.Ledger().GetTransfer(goldenPinnedTxID); err != nil {
		t.Fatalf("pinned charge did not settle under its pinned ID %d: %v", goldenPinnedTxID, err)
	}
}

// TestOpenPinsShardCount checks the marker through Open, not just the
// helper: a data dir reopens only under the count it was created with,
// and a pre-sharding dir (journal, no marker) only as one shard.
func TestOpenPinsShardCount(t *testing.T) {
	v := newTestVO(t)
	cfg := v.config(t.TempDir())
	if err := mustOpen(t, cfg).Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "created with -shards 2") {
		t.Fatalf("reopen under another shard count = %v", err)
	}
	legacy := v.config(t.TempDir())
	if err := os.WriteFile(filepath.Join(legacy.Dir, "ledger.wal"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(legacy); err == nil || !strings.Contains(err.Error(), "predates sharding") {
		t.Fatalf("pre-sharding dir under 2 shards = %v", err)
	}
	legacy.Shards = 1
	if err := mustOpen(t, legacy).Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(filepath.Join(legacy.Dir, "shards")); err != nil || string(raw) != "1\n" {
		t.Fatalf("marker = %q, %v", raw, err)
	}
}

func TestPinShardCountRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := pinShardCount(db.OSFS(), dir, 4); err != nil {
		t.Fatal(err)
	}
	if err := pinShardCount(db.OSFS(), dir, 4); err != nil {
		t.Fatalf("matching re-pin = %v", err)
	}
	if err := pinShardCount(db.OSFS(), dir, 1); err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	// A pre-sharding data dir (journal, no marker) is 1 shard only.
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "ledger.wal"), []byte("[]\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := pinShardCount(db.OSFS(), legacy, 4); err == nil {
		t.Fatal("pre-sharding dir accepted -shards 4")
	}
	if err := pinShardCount(db.OSFS(), legacy, 1); err != nil {
		t.Fatalf("pre-sharding dir refused -shards 1: %v", err)
	}
}

// TestReplicaConvergesAndRedirects: OpenReplica against a node's Publish
// listener mirrors the shard, serves reads and redirects mutations.
func TestReplicaConvergesAndRedirects(t *testing.T) {
	v := newTestVO(t)
	cfg := v.config("")
	cfg.Shards = 1
	pln := listen(t)
	aln := listen(t)
	cfg.PrimaryAddr = aln.Addr().String()
	n := mustOpen(t, cfg)
	go n.Serve(aln)
	if err := n.Publish(0, pln); err != nil {
		t.Fatal(err)
	}
	if err := n.Publish(1, pln); err == nil {
		t.Fatal("Publish accepted a shard the node does not have")
	}
	alice := v.issue(t, "alice", false)
	acct, err := n.Ledger().CreateAccount(alice.SubjectName(), "VO-N", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ledger().Deposit(acct.AccountID, currency.FromG(7)); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Identity, rcfg.ReplicaOf, rcfg.PrimaryAddr = v.issue(t, "replica", true), pln.Addr().String(), ""
	r, err := OpenReplica(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	rln := listen(t)
	go r.Serve(rln)
	if err := r.Follower().WaitForSeq(n.Ledger().Store().CurrentSeq(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rc := v.dial(t, rln.Addr().String(), alice)
	got, err := rc.AccountDetails(acct.AccountID)
	if err != nil || got.AvailableBalance != currency.FromG(7) {
		t.Fatalf("replica read = %+v, %v", got, err)
	}
	_, err = rc.DirectTransfer(acct.AccountID, acct.AccountID, currency.FromG(1), "")
	if !core.IsRemoteCode(err, wire.CodeReadOnly) || !strings.Contains(err.Error(), cfg.PrimaryAddr) {
		t.Fatalf("mutation on a replica = %v, want a read_only redirect naming %s", err, cfg.PrimaryAddr)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckShardIndexDetectsMismatchedReplica(t *testing.T) {
	store := db.MustOpenMemory()
	if err := store.EnsureTable("accounts"); err != nil {
		t.Fatal(err)
	}
	// Find an account ID on shard 2 of 4 and pretend this replica
	// mirrored it while claiming another shard.
	ring, err := shard.NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for i := 1; i < 10000; i++ {
		candidate := fmt.Sprintf("01-0001-%08d", i)
		if ring.ShardFor(candidate) == 2 {
			id = candidate
			break
		}
	}
	err = store.Update(func(tx *db.Tx) error { return tx.Put("accounts", id, []byte("{}")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := checkShardIndex(store, 2, 4); err != nil {
		t.Fatalf("correct shard claim rejected: %v", err)
	}
	if err := checkShardIndex(store, 1, 4); err == nil {
		t.Fatal("mismatched shard claim accepted")
	}
	// An empty store proves nothing and passes.
	if err := checkShardIndex(db.MustOpenMemory(), 1, 4); err != nil {
		t.Fatalf("empty store rejected: %v", err)
	}
}

// handleCountingFS counts file handles opened and not yet closed.
type handleCountingFS struct {
	db.FS
	open atomic.Int64
}

type countedFile struct {
	db.File
	fs *handleCountingFS
}

func (c *handleCountingFS) OpenFile(name string, flag int, perm os.FileMode) (db.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{f, c}, nil
}

func (f *countedFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// TestFailedOpenClosesWhatItOpened: when shard 1 cannot boot, Open
// returns the typed refusal and leaves no handle open on shard 0 — a
// harness that reboots in process must not leak a journal per failed
// boot — and the repaired disk boots.
func TestFailedOpenClosesWhatItOpened(t *testing.T) {
	v := newTestVO(t)
	d := diskfault.New(diskfault.Config{Seed: 3})
	fs := &handleCountingFS{FS: d}
	cfg := v.config("/data")
	cfg.FS, cfg.Sync, cfg.WALCodec = fs, true, wire.CodecJSON
	n := mustOpen(t, cfg)
	led := n.Ledger()
	var onShard [2]accounts.ID
	for i := 0; onShard[0] == "" || onShard[1] == ""; i++ {
		a, err := led.CreateAccount(fmt.Sprintf("CN=user-%d", i), "VO-N", "")
		if err != nil {
			t.Fatal(err)
		}
		onShard[led.ShardFor(a.AccountID)] = a.AccountID
	}
	// Two maintenance passes with a write between them: the journal no
	// longer reaches back behind the only checkpoint generation left
	// intact once the newest one rots.
	for i := 0; i < 2; i++ {
		if err := led.Deposit(onShard[1], currency.FromG(5)); err != nil {
			t.Fatal(err)
		}
		if err := n.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if open := fs.open.Load(); open != 0 {
		t.Fatalf("%d handles open after Close", open)
	}
	d.Crash()
	intact := d.Bytes("/data/ledger-1.ckpt")
	if !d.Corrupt("/data/ledger-1.ckpt", 40, 0xFF) {
		t.Fatal("corrupt missed")
	}

	if _, err := Open(cfg); !errors.Is(err, db.ErrNoIntactHistory) {
		t.Fatalf("Open over a rotten shard 1 = %v, want ErrNoIntactHistory", err)
	}
	if open := fs.open.Load(); open != 0 {
		t.Fatalf("failed Open left %d handles open (shard 0's journal must be closed again)", open)
	}

	d.SetBytes("/data/ledger-1.ckpt", intact)
	n = mustOpen(t, cfg)
	a, err := n.Ledger().Details(onShard[1])
	if err != nil || a.AvailableBalance != currency.FromG(10) {
		t.Fatalf("after repair: %+v, %v", a, err)
	}
}

// Recorded when testdata/datadir_32b1772 was written (see its README).
var (
	goldenAccounts = map[string]string{
		"CN=alice,O=VO-Gold":    "01-0001-00000001 919+20",
		"CN=gsp-far,O=VO-Gold":  "01-0001-00000002 50+0",
		"CN=gsp-near,O=VO-Gold": "01-0001-00000003 11+0",
	}
	goldenPinnedTxID = uint64(8)
)
