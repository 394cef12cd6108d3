package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
)

// TestLegacyJournalFixtureRecovers boots the current code over journals
// an older binary left mid-protocol (testdata/legacy2pc) and holds it
// to the balances that binary's own recovery produced: retired-protocol
// rows presume-abort or complete, cheque rows move to their drawer's
// shard and stay usable, and a transaction ID an old marker pinned is
// the one its key finally runs under.
func TestLegacyJournalFixtureRecovers(t *testing.T) {
	var want struct {
		Epoch    time.Time `json:"epoch"`
		Admin    string    `json:"admin"`
		Accounts []struct {
			ID        accounts.ID     `json:"id"`
			Available currency.Amount `json:"available"`
			Locked    currency.Amount `json:"locked"`
		} `json:"accounts"`
		Total       currency.Amount `json:"total"`
		Outstanding []string        `json:"outstanding_cheques"`
		Redeemed    []string        `json:"redeemed_cheques"`
		KeyedKey    string          `json:"keyed_key"`
		KeyedFrom   accounts.ID     `json:"keyed_from"`
		KeyedTo     accounts.ID     `json:"keyed_to"`
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy2pc", "recovered.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // replay may repair a journal in place: work on copies
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ledger-%d.wal", i)
		b, err := os.ReadFile(filepath.Join("testdata", "legacy2pc", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := pki.NewCA("Fixture CA", "VO-FX", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "gridbank", Organization: "VO-FX", IsServer: true})
	if err != nil {
		t.Fatal(err)
	}
	now := want.Epoch
	boot := func() ([]*db.Store, *shard.Ledger, *Bank) {
		t.Helper()
		stores := make([]*db.Store, 2)
		for i := range stores {
			j, err := db.OpenFileJournal(filepath.Join(dir, fmt.Sprintf("ledger-%d.wal", i)), false)
			if err != nil {
				t.Fatal(err)
			}
			if stores[i], err = db.Open(j); err != nil {
				t.Fatal(err)
			}
		}
		clock := func() time.Time { return now }
		led, err := shard.New(stores, shard.Config{Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		bank, err := NewBankWithLedger(led, BankConfig{Identity: bankID, Trust: pki.NewTrustStore(ca.Certificate()), Admins: []string{want.Admin}, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		return stores, led, bank
	}
	check := func(stores []*db.Store, led *shard.Ledger) {
		t.Helper()
		for _, a := range want.Accounts {
			got, err := led.Details(a.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.AvailableBalance != a.Available || got.LockedBalance != a.Locked {
				t.Errorf("account %s = %v available / %v locked, the writing binary recovers it to %v / %v",
					a.ID, got.AvailableBalance, got.LockedBalance, a.Available, a.Locked)
			}
		}
		if total, err := led.TotalBalance(); err != nil || total != want.Total {
			t.Errorf("total = %v, %v, want %v", total, err, want.Total)
		}
		if esc, err := led.PendingEscrow(); err != nil || !esc.IsZero() {
			t.Errorf("escrow after recovery = %v, %v", esc, err)
		}
		for i, st := range stores {
			for _, table := range []string{"pc_transfers", "pc_applied"} {
				if n, err := st.Count(table); err != nil || n != 0 {
					t.Errorf("shard %d still holds %d %s rows (%v)", i, n, table, err)
				}
			}
		}
		for _, serial := range append(append([]string(nil), want.Outstanding...), want.Redeemed...) {
			for i, st := range stores {
				raw, err := st.Get(tableCheques, serial)
				if err != nil {
					continue
				}
				var row chequeRow
				if err := json.Unmarshal(raw, &row); err != nil {
					t.Fatal(err)
				}
				if home := led.ShardFor(row.Cheque.DrawerAccountID); home != i {
					t.Errorf("cheque %s sits on shard %d, its drawer on shard %d", serial, i, home)
				}
			}
		}
	}

	stores, led, _ := boot()
	check(stores, led)
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A second boot finds nothing left to do.
	stores, led, bank := boot()
	check(stores, led)

	// The key an older binary pinned before moving any money runs, once,
	// under the pinned ID.
	tr, err := led.Transfer(want.KeyedFrom, want.KeyedTo, currency.FromG(13), accounts.TransferOptions{DedupKey: want.KeyedKey})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := led.Managers()[led.ShardFor(want.KeyedFrom)].GetDedup(want.KeyedKey)
	if err != nil || mk == nil || mk.TxID != tr.TransactionID {
		t.Fatalf("keyed retry ran as %d, marker %+v (%v)", tr.TransactionID, mk, err)
	}
	again, err := led.Transfer(want.KeyedFrom, want.KeyedTo, currency.FromG(13), accounts.TransferOptions{DedupKey: want.KeyedKey})
	if err != nil || again.TransactionID != tr.TransactionID {
		t.Fatalf("replay = %+v, %v", again, err)
	}

	// The moved cheque rows still answer for their locks.
	now = want.Epoch.Add(2 * time.Hour)
	for _, serial := range want.Redeemed {
		if _, err := bank.ReleaseCheque(want.Admin, &ReleaseRequest{Serial: serial}); !errors.Is(err, ErrAlreadyRedeemed) {
			t.Errorf("release of redeemed cheque %s = %v", serial, err)
		}
	}
	for _, serial := range want.Outstanding {
		if _, err := bank.ReleaseCheque(want.Admin, &ReleaseRequest{Serial: serial}); err != nil {
			t.Errorf("release of outstanding cheque %s: %v", serial, err)
		}
	}
	for _, a := range want.Accounts {
		if got, err := led.Details(a.ID); err != nil || !got.LockedBalance.IsZero() {
			t.Errorf("account %s locked %v after releasing every cheque (%v)", a.ID, got.LockedBalance, err)
		}
	}
	if total, err := led.TotalBalance(); err != nil || total != want.Total {
		t.Errorf("total after release = %v, %v, want %v", total, err, want.Total)
	}
}
