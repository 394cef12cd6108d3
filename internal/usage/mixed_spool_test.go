package usage_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// TestMixedSpoolSettlesExactlyOnce runs the spool the parent commit
// wrote (testdata/spool_3b179ae: job-pending, job-pinned at transaction
// 42, job-parked) together with rows this binary writes, across
// restarts: every charge settles exactly once, a legacy row parked again
// is rewritten in bin1, and parked rows of both formats revive.
func TestMixedSpoolSettlesExactlyOnce(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "spool_3b179ae", "usage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "usage.wal")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	testNow := func() time.Time { return testEpoch }
	led, err := shard.New([]*db.Store{db.MustOpenMemory(), db.MustOpenMemory()}, shard.Config{Now: testNow})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's parties: 1 and 2 draw, 3 (drawer 1's shard) and 4
	// (the other shard) receive.
	ids := make([]accounts.ID, 5)
	for i := 1; i <= 4; i++ {
		a, err := led.CreateAccount(fmt.Sprintf("CN=fx-party-%d", i), "VO-X", "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = a.AccountID
	}
	if ids[1] != "01-0001-00000001" || led.ShardFor(ids[1]) != led.ShardFor(ids[3]) || led.ShardFor(ids[1]) == led.ShardFor(ids[4]) {
		t.Fatalf("placement differs from the fixture's: %v", ids)
	}
	if err := led.Deposit(ids[1], currency.FromG(100)); err != nil {
		t.Fatal(err)
	}

	var spool *db.Store
	var p *usage.Pipeline
	boot := func() {
		t.Helper()
		if p != nil {
			p.Close()
			spool.Close()
		}
		j, err := db.OpenFileJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if spool, err = db.Open(j); err != nil {
			t.Fatal(err)
		}
		if p, err = usage.New(usage.Config{Ledger: led, Spool: spool, Workers: -1, Now: testNow}); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { p.Close(); spool.Close() }()
	submit := func(accepted int, subs ...usage.Submission) {
		t.Helper()
		res, err := p.Submit(subs)
		if err != nil || res.Accepted != accepted || len(res.Rejected) != 0 {
			t.Fatalf("submit = %+v, %v; want %d accepted", res, err, accepted)
		}
	}
	drain := func(pending, failed int) {
		t.Helper()
		if st, err := p.Drain(0); err != nil || st.Pending != pending || st.Failed != failed {
			t.Fatalf("drain = %+v, %v; want %d pending, %d parked", st, err, pending, failed)
		}
	}
	sub := func(id string, drawer, recip int, g int64) usage.Submission {
		return usage.Submission{ID: id, Drawer: ids[drawer], Recipient: ids[recip],
			RUR: encodedRUR(t, "CN=fx-consumer", "CN=fx-provider", id, g*3600), Rates: flatRates("CN=fx-provider")}
	}
	bin1 := func(id string, parked bool) {
		t.Helper()
		raw, err := spool.Get(usage.TableSpool, id)
		if err != nil {
			t.Fatal(err)
		}
		row, err := usage.DecodeSpoolRow(id, raw)
		if err != nil || raw[0] != 0xB1 || row.Parked() != parked {
			t.Errorf("row %s = %q (%v): want bin1, parked %v", id, raw, err, parked)
		}
	}

	boot()
	submit(2, sub("job-new", 1, 3, 2), sub("job-poor", 2, 3, 1))
	boot() // recovery reads both formats
	if st := p.Status(); st.Pending != 4 || st.Failed != 1 {
		t.Fatalf("recovered %+v, want 4 pending and job-parked parked", st)
	}
	drain(0, 2)
	bin1("job-poor", true)

	// Parked again, the legacy row is rewritten in bin1 (its drawer is
	// still empty); funded, both parked rows revive and settle.
	submit(1, sub("job-parked", 2, 4, 1))
	drain(0, 2)
	bin1("job-parked", true)
	if err := led.Deposit(ids[2], currency.FromG(5)); err != nil {
		t.Fatal(err)
	}
	submit(2, sub("job-parked", 2, 4, 1), sub("job-poor", 2, 3, 1))
	drain(0, 0)

	boot()
	if st := p.Status(); st.Pending != 0 || st.Failed != 0 {
		t.Fatalf("after restart %+v, want an empty spool", st)
	}
	if res, err := p.Submit([]usage.Submission{sub("job-pending", 1, 3, 1), sub("job-pinned", 1, 4, 1),
		sub("job-parked", 2, 4, 1), sub("job-new", 1, 3, 2), sub("job-poor", 2, 3, 1)}); err != nil || res.Duplicates != 5 {
		t.Fatalf("resubmitting every charge = %+v, %v; want 5 duplicates", res, err)
	}
	for i, want := range map[int]string{1: "96", 2: "3", 3: "4", 4: "2"} {
		if got := balance(t, led, ids[i]); got != currency.MustParse(want) {
			t.Errorf("account %d holds %s, want %s", i, got, want)
		}
	}
	if _, err := led.GetTransfer(42); err != nil {
		t.Errorf("pinned transfer 42: %v", err)
	}
	if total, err := led.TotalBalance(); err != nil || total != currency.FromG(105) {
		t.Errorf("total %s, %v; want 105", total, err)
	}
}
