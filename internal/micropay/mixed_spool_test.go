package micropay_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
)

// TestMixedSpoolSettlesExactlyOnce runs the rows the parent commit
// spooled (testdata/spool_3b179ae: S/42 pending, P/7 parked, both on
// chains this ledger never issued) together with rows this binary
// writes, across restarts: every claim settles exactly once, the legacy
// row that parks is rewritten in bin1, and the parked legacy row is left
// as it was.
func TestMixedSpoolSettlesExactlyOnce(t *testing.T) {
	w := newWorld(t, 2)
	legacy := parentSpoolRows(t)
	if err := w.spool.Update(func(tx *db.Tx) error {
		for key, value := range legacy {
			if err := tx.Put(micropay.TableSpool, key, value); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	perWord := currency.MustParse("0.01")
	same := w.issue(w.sameCert, 100, perWord, time.Hour)
	cross := w.issue(w.crossCert, 100, perWord, time.Hour)
	released := w.issue(w.sameCert, 100, perWord, time.Hour)
	submit := func(cert string, ch *payment.Chain, index, accepted int) {
		t.Helper()
		res, err := w.pipe.Submit(cert, []micropay.Claim{{Serial: ch.Commitment.Serial, Index: index, Word: w.word(ch, index)}})
		if err != nil || res.Accepted != accepted || len(res.Rejected) != 0 {
			t.Fatalf("submit %d = %+v, %v; want %d accepted", index, res, err, accepted)
		}
	}
	submit(w.sameCert, same, 10, 1)
	submit(w.crossCert, cross, 5, 1)
	submit(w.sameCert, released, 3, 1)

	w.reboot() // recovery reads both formats
	if st := w.pipe.Status(); st.Pending != 4 || st.Failed != 1 {
		t.Fatalf("recovered %+v, want S/42 and three new rows pending, P/7 parked", st)
	}
	if _, err := w.red.Release(released.Commitment.Serial, nil); err != nil {
		t.Fatal(err)
	}
	if st, err := w.pipe.Drain(5 * time.Second); err != nil || st.Pending != 0 || st.Failed != 3 || st.SettledTicks != 15 {
		t.Fatalf("drain = %+v, %v; want 15 ticks paid, S/42 and the released chain's row parked", st, err)
	}
	rows := w.spoolRows()
	for _, key := range []string{"S/000000000042", released.Commitment.Serial} {
		raw, err := w.spool.Get(micropay.TableSpool, key)
		if err != nil || raw[0] != 0xB1 || rows[key] == nil || !rows[key].Parked() {
			t.Errorf("row %s = %q, %v: want bin1, parked", key, raw, err)
		}
	}
	if raw, _ := w.spool.Get(micropay.TableSpool, "P/000000000007"); !bytes.Equal(raw, legacy["P/000000000007"]) {
		t.Errorf("untouched legacy row rewritten: %q", raw)
	}

	w.reboot()
	if st := w.pipe.Status(); st.Pending != 0 || st.Failed != 3 {
		t.Fatalf("after restart %+v, want nothing pending and three rows parked", st)
	}
	if res, err := w.pipe.Submit(w.sameCert, []micropay.Claim{{Serial: same.Commitment.Serial, Index: 10, Word: w.word(same, 10)}}); err != nil || res.Duplicates != 1 {
		t.Fatalf("resubmit = %+v, %v; want a duplicate", res, err)
	}
	submit(w.sameCert, same, 20, 1)
	if _, err := w.pipe.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := w.avail(w.sameAcct), currency.MustParse("0.2"); got != want {
		t.Errorf("same-shard payee holds %s, want %s", got, want)
	}
	if got, want := w.avail(w.crossAcct), currency.MustParse("0.05"); got != want {
		t.Errorf("cross-shard payee holds %s, want %s", got, want)
	}
	w.assertConserved()
}

// parentSpoolRows reads the row values of the parent-written fixture.
func parentSpoolRows(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "spool_3b179ae", "micropay.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "micropay.wal")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := db.OpenFileJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	spool, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	rows := make(map[string][]byte)
	if err := spool.Scan(micropay.TableSpool, func(key string, value []byte) bool {
		rows[key] = append([]byte(nil), value...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}
