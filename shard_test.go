package gridbank_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridbank"
	"gridbank/internal/db"
)

// shardedFixture stands up a 3-shard deployment with one read replica
// per shard and two funded users whose accounts live on different
// shards.
type shardedFixture struct {
	dep          *gridbank.Deployment
	alice, bob   *gridbank.Identity
	aAcct, bAcct gridbank.AccountID
}

func newShardedFixture(t *testing.T) *shardedFixture {
	t.Helper()
	dep, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Shard"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.EnableSharding(3); err != nil {
		t.Fatal(err)
	}
	led := dep.Sharded()
	if led == nil || led.Shards() != 3 {
		t.Fatalf("Sharded() = %v", led)
	}

	// Mint users until two accounts land on different shards.
	open := func(name string) (*gridbank.Identity, gridbank.AccountID) {
		id, err := dep.NewUser(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := dep.Dial(id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		acct, err := c.CreateAccount("VO-Shard", "")
		if err != nil {
			t.Fatal(err)
		}
		return id, acct.AccountID
	}
	f := &shardedFixture{dep: dep}
	f.alice, f.aAcct = open("alice")
	for i := 0; ; i++ {
		if i > 50 {
			t.Fatal("no cross-shard account pair in 50 tries")
		}
		id, acct := open(fmt.Sprintf("bob-%d", i))
		if led.ShardFor(acct) != led.ShardFor(f.aAcct) {
			f.bob, f.bAcct = id, acct
			break
		}
	}
	return f
}

// TestDeploymentShardedEndToEnd drives the full stack over a sharded
// ledger: cross-shard direct transfer, cross-shard cheque redemption
// (the pay-after-use flow whose drawer and payee bank on different
// shards), per-shard read replicas, and routed reads — all through the
// real TLS servers, with conservation checked at the end.
func TestDeploymentShardedEndToEnd(t *testing.T) {
	f := newShardedFixture(t)
	dep := f.dep

	// One replica per shard.
	for i := 0; i < 3; i++ {
		if _, err := dep.AddShardReplica(fmt.Sprintf("shard-rep-%d", i), i); err != nil {
			t.Fatal(err)
		}
	}

	bc, err := dep.Dial(dep.Banker)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if err := bc.AdminDeposit(f.aAcct, gridbank.G(100)); err != nil {
		t.Fatal(err)
	}

	// Cross-shard direct transfer through the wire.
	ac, err := dep.Dial(f.alice)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if _, err := ac.DirectTransfer(f.aAcct, f.bAcct, gridbank.G(10), ""); err != nil {
		t.Fatal(err)
	}

	// Cross-shard cheque: alice draws on her shard, bob redeems onto
	// his — the redemption settles FromLocked across shards via 2PC.
	cheque, err := ac.RequestCheque(f.aAcct, gridbank.G(20), f.bob.SubjectName(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := dep.Dial(f.bob)
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	red, err := gc.RedeemCheque(cheque, &gridbank.ChequeClaim{
		Serial: cheque.Cheque.Serial,
		Amount: gridbank.G(15),
		RUR:    []byte("usage"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if red.Paid != gridbank.G(15) || red.Released != gridbank.G(5) {
		t.Fatalf("redemption = %+v", red)
	}

	aBal, err := ac.AccountDetails(f.aAcct)
	if err != nil {
		t.Fatal(err)
	}
	bBal, err := gc.AccountDetails(f.bAcct)
	if err != nil {
		t.Fatal(err)
	}
	if aBal.AvailableBalance != gridbank.G(75) || bBal.AvailableBalance != gridbank.G(25) {
		t.Fatalf("balances after cross-shard flows: alice=%v bob=%v", aBal.AvailableBalance, bBal.AvailableBalance)
	}

	// Conservation across the whole sharded ledger.
	total, err := dep.Sharded().TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	if total != gridbank.G(100) {
		t.Fatalf("total across shards = %v, want 100 G$", total)
	}

	// Routed reads resolve through the per-shard replica pools.
	if err := dep.SyncReplicas(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	routed, err := dep.DialRouted(f.alice, gridbank.RouteOptions{MaxStaleness: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()
	a, err := routed.AccountDetails(f.aAcct)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvailableBalance != gridbank.G(75) {
		t.Fatalf("routed read = %v", a.AvailableBalance)
	}

	// A replica of the wrong shard redirects typed, never lies.
	var wrong *gridbank.Client
	for _, r := range dep.Replicas() {
		if r.Shard != dep.Sharded().ShardFor(f.aAcct) {
			wrong, err = gridbank.Dial(r.Addr(), f.alice, dep.Trust)
			if err != nil {
				t.Fatal(err)
			}
			defer wrong.Close()
			break
		}
	}
	if _, err := wrong.AccountDetails(f.aAcct); !gridbank.IsRemoteCode(err, "wrong_shard") {
		t.Fatalf("wrong-shard replica read = %v, want wrong_shard", err)
	}
}

// TestEnableShardingGuards pins the safety rails: resharding a
// populated deployment is refused, as is double-enabling.
func TestEnableShardingGuards(t *testing.T) {
	dep, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Guard"})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	u, err := dep.NewUser("u")
	if err != nil {
		t.Fatal(err)
	}
	c, err := dep.Dial(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateAccount("VO-Guard", ""); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := dep.EnableSharding(2); err == nil {
		t.Fatal("sharding a populated deployment must be refused")
	}

	dep2, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Guard2"})
	if err != nil {
		t.Fatal(err)
	}
	defer dep2.Close()
	if err := dep2.EnableSharding(2); err != nil {
		t.Fatal(err)
	}
	if err := dep2.EnableSharding(2); err == nil {
		t.Fatal("double EnableSharding must be refused")
	}
}

// TestOneShardOpensSeedFormatJournalByteCompatibly guards the PR 1
// byte-compatibility promise through the shard refactor: a 1-shard
// deployment opens a journal written by an unsharded deployment,
// serves it, adds no sharding tables, and appends in the exact NDJSON
// framing the seed wrote.
func TestOneShardOpensSeedFormatJournalByteCompatibly(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ledger.wal")

	// Generation 1: classic unsharded deployment writes the journal.
	j1, err := gridbank.OpenFileJournal(walPath, false)
	if err != nil {
		t.Fatal(err)
	}
	dep1, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Seed", Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := dep1.NewUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := dep1.Dial(alice)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := c1.CreateAccount("VO-Seed", "")
	if err != nil {
		t.Fatal(err)
	}
	bc1, err := dep1.Dial(dep1.Banker)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc1.AdminDeposit(acct.AccountID, gridbank.G(42)); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	bc1.Close()
	if err := dep1.Close(); err != nil {
		t.Fatal(err)
	}
	seedBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(seedBytes) == 0 {
		t.Fatal("generation 1 wrote no journal")
	}

	// Generation 2: a 1-shard deployment reopens the same journal. The
	// sharded code path must replay it identically and leave the
	// on-disk format untouched.
	j2, err := gridbank.OpenFileJournal(walPath, false)
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Seed", Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	defer dep2.Close()
	if err := dep2.EnableSharding(1); err != nil {
		t.Fatal(err)
	}
	got, err := dep2.Sharded().Details(acct.AccountID)
	if err != nil {
		t.Fatal(err)
	}
	if got.AvailableBalance != gridbank.G(42) {
		t.Fatalf("replayed balance = %v, want 42 G$", got.AvailableBalance)
	}
	// Writing through the 1-shard ledger appends seed-framed lines
	// after the untouched original bytes.
	if err := dep2.Sharded().Deposit(acct.AccountID, gridbank.G(8)); err != nil {
		t.Fatal(err)
	}
	if err := dep2.Close(); err != nil {
		t.Fatal(err)
	}
	finalBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(finalBytes), string(seedBytes)) {
		t.Fatal("1-shard reopen rewrote existing journal bytes")
	}
	tail := strings.TrimPrefix(string(finalBytes), string(seedBytes))
	for _, line := range strings.Split(strings.TrimSuffix(tail, "\n"), "\n") {
		if !strings.HasPrefix(line, `[{"seq":`) || !strings.HasSuffix(line, "}]") {
			t.Fatalf("appended line not in seed NDJSON batch framing: %q", line)
		}
		if strings.Contains(line, "pc_transfers") || strings.Contains(line, "pc_applied") {
			t.Fatalf("1-shard deployment created sharding tables: %q", line)
		}
	}
	if !strings.Contains(tail, `"op":"put"`) {
		t.Fatalf("deposit did not journal through the sharded path: %q", tail)
	}
}

// TestDeploymentCloseClosesItsStores: Close releases everything the
// deployment opened — the journal-backed ledger store and the usage
// spool included — instead of leaking one journal descriptor per store
// per deployment.
func TestDeploymentCloseClosesItsStores(t *testing.T) {
	j, err := gridbank.OpenFileJournal(filepath.Join(t.TempDir(), "ledger.wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Close", Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.EnableUsage(gridbank.UsageOptions{}); err != nil {
		t.Fatal(err)
	}
	ledger := dep.Bank.Ledger().Store()
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Count("accounts"); !errors.Is(err, db.ErrClosed) {
		t.Fatalf("ledger store after Deployment.Close answers %v, want ErrClosed", err)
	}
	if err := j.Append(db.Entry{Seq: 1 << 40, Op: "put", Table: "t", Key: "k"}); err == nil {
		t.Fatal("the deployment's journal is still open after Deployment.Close")
	}
}
