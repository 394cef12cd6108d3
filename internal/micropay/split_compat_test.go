package micropay_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
)

// The rows this package wrote before one spool row per chain and the
// chain head split stay readable, and a chain that has them settles
// exactly once next to rows written now.

// TestLegacyAndPerChainRowsOfOneChainSettleOnce: a "<serial>/<index>" row
// spooled by the previous layout is pending when a per-chain row for the
// same chain joins it. The chain pays each word once whether the two
// settle in one batch or one after the other — RedeemedIndex is the
// marker — and both rows leave the spool.
func TestLegacyAndPerChainRowsOfOneChainSettleOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		json  bool
		batch int
	}{
		{name: "bin1, one batch"},
		{name: "bin1, a batch each", batch: 1},
		{name: "JSON, one batch", json: true},
		{name: "JSON, a batch each", json: true, batch: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 2)
			w.batch = tc.batch
			ch := w.issue(w.crossCert, 100, currency.MustParse("0.01"), time.Hour)
			serial := ch.Commitment.Serial
			legacy := &micropay.SpoolRow{Key: micropay.LegacySpoolKey(serial, 30), Serial: serial, Index: 30,
				Word: w.word(ch, 30), Claims: 3, Drawer: w.drawer, Payee: w.crossAcct, State: "pending", Enqueued: w.clock}
			raw, err := micropay.EncodeSpoolRow(legacy)
			if tc.json {
				raw, err = json.Marshal(legacy)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := w.spool.Update(func(tx *db.Tx) error { return tx.Put(micropay.TableSpool, legacy.Key, raw) }); err != nil {
				t.Fatal(err)
			}
			w.reboot()
			// Recovery anchored the chain's session at the legacy row.
			res, err := w.pipe.Submit(w.crossCert, claimsFor(t, ch, 20, 30, 50))
			if err != nil || res.Accepted != 1 || res.AcceptedTicks != 20 || res.Duplicates != 2 {
				t.Fatalf("submit = %+v, %v", res, err)
			}
			if st := w.pipe.Status(); st.Pending != 2 {
				t.Fatalf("pending %d rows, want the legacy one and the chain's", st.Pending)
			}
			st, err := w.pipe.Drain(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.SettledTicks != 50 || st.Pending != 0 || st.Failed != 0 || len(w.spoolRows()) != 0 {
				t.Fatalf("drained = %+v, spool %v; want 50 ticks and nothing left", st, w.spoolRows())
			}
			if got := w.avail(w.crossAcct); got != currency.MustParse("0.50") {
				t.Errorf("payee = %s, want 0.50", got)
			}
			w.assertConserved()
		})
	}
}

// TestCombinedPinnedRowFinishes: a cross-shard redemption pinned in a
// combined chain row (the layout before the head split) and cut short by
// a crash. After a restart the pin's ID is still reserved, the pinned
// transfer is driven once, the chain advances through its head row, and
// the drawer still cannot release before expiry.
func TestCombinedPinnedRowFinishes(t *testing.T) {
	w := newWorld(t, 2)
	ch := w.issue(w.crossCert, 100, currency.MustParse("0.01"), time.Hour)
	serial := ch.Commitment.Serial
	w.red.Hook = func(b micropay.Boundary, _ string) error {
		if b == micropay.BoundaryPinned {
			return errors.New("injected death after the pin")
		}
		return nil
	}
	if _, err := w.red.Redeem(serial, w.crossAcct, 40, w.word(ch, 40), nil); err == nil {
		t.Fatal("expected injected death")
	}
	pinned, err := w.red.Get(serial)
	if err != nil || pinned.PinTxID == 0 || pinned.PinIndex != 40 {
		t.Fatalf("pinned row = %+v, %v", pinned, err)
	}
	// Rewrite the chain as the previous layout left it: one combined row,
	// pinned, no head.
	home := w.led.ShardStore(w.led.ShardFor(w.drawer))
	raw, err := pinned.EncodeCombined()
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Update(func(tx *db.Tx) error {
		if err := tx.Delete(micropay.TableChainHeads, serial); err != nil {
			return err
		}
		return tx.Put(micropay.TableChains, serial, raw)
	}); err != nil {
		t.Fatal(err)
	}
	w.reboot()
	home = w.led.ShardStore(w.led.ShardFor(w.drawer))
	// A fresh transfer after the restart must not reuse the pinned ID.
	other := w.issue(w.sameCert, 10, currency.MustParse("0.01"), time.Hour)
	if out, err := w.red.Redeem(other.Commitment.Serial, w.sameAcct, 2, w.word(other, 2), nil); err != nil || out.TxID <= pinned.PinTxID {
		t.Fatalf("fresh redemption = %+v, %v; want a transaction ID above the pin %d", out, err, pinned.PinTxID)
	}
	if _, err := w.pipe.Submit(w.crossCert, claimsFor(t, ch, 40, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	row, err := w.red.Get(serial)
	if err != nil || row.RedeemedIndex != 60 || row.PinTxID != 0 {
		t.Fatalf("chain = %+v, %v; want redeemed to 60, unpinned", row, err)
	}
	if _, err := home.Get(micropay.TableChainHeads, serial); err != nil {
		t.Errorf("no head row after the advance: %v", err)
	}
	if got := w.avail(w.crossAcct); got != currency.MustParse("0.60") {
		t.Errorf("payee = %s, want 0.60 (the pinned 40 words paid once)", got)
	}
	if _, err := w.red.Release(serial, func(r *micropay.ChainRow) error {
		if w.clock.Before(r.Commitment.Expires) {
			return errors.New("not expired")
		}
		return nil
	}); err == nil {
		t.Error("released before expiry")
	}
	w.assertConserved()
}

// TestStrayRowMovesHomeWithItsHead: a combined chain row left on a shard
// other than the drawer's (as the metadata-store layout put them on
// shard 0). The first state change writes the commitment and the head
// home in one transaction and drops the stray; later changes write the
// head alone.
func TestStrayRowMovesHomeWithItsHead(t *testing.T) {
	for _, payee := range []string{"same-shard", "cross-shard"} {
		t.Run(payee, func(t *testing.T) {
			w := newWorld(t, 2)
			cert, acct := w.sameCert, w.sameAcct
			if payee == "cross-shard" {
				cert, acct = w.crossCert, w.crossAcct
			}
			ch := w.issue(cert, 100, currency.MustParse("0.01"), time.Hour)
			serial := ch.Commitment.Serial
			homeAt := w.led.ShardFor(w.drawer)
			home, stray := w.led.ShardStore(homeAt), w.led.ShardStore(1-homeAt)
			raw, err := home.Get(micropay.TableChains, serial)
			if err != nil {
				t.Fatal(err)
			}
			if err := home.Update(func(tx *db.Tx) error { return tx.Delete(micropay.TableChains, serial) }); err != nil {
				t.Fatal(err)
			}
			if err := stray.Update(func(tx *db.Tx) error { return tx.Put(micropay.TableChains, serial, raw) }); err != nil {
				t.Fatal(err)
			}
			w.reboot()
			home, stray = w.led.ShardStore(homeAt), w.led.ShardStore(1-homeAt)
			var moved []byte
			for _, index := range []int{25, 70} {
				if _, err := w.red.Redeem(serial, acct, index, w.word(ch, index), nil); err != nil {
					t.Fatalf("redeem %d: %v", index, err)
				}
				if got, _ := home.Get(micropay.TableChains, serial); moved == nil {
					moved = got
				} else if string(got) != string(moved) {
					t.Errorf("after %d: commitment rewritten, not just the head", index)
				}
				for table, want := range map[string]bool{micropay.TableChains: true, micropay.TableChainHeads: true} {
					if _, err := home.Get(table, serial); (err == nil) != want {
						t.Errorf("after %d: home %s row: %v", index, table, err)
					}
					if _, err := stray.Get(table, serial); !errors.Is(err, db.ErrNoRecord) {
						t.Errorf("after %d: stray %s row survives: %v", index, table, err)
					}
				}
			}
			row, err := w.red.Get(serial)
			if err != nil || row.RedeemedIndex != 70 {
				t.Fatalf("chain = %+v, %v", row, err)
			}
			if got := w.avail(acct); got != currency.MustParse("0.70") {
				t.Errorf("payee = %s, want 0.70", got)
			}
			w.assertConserved()
		})
	}
}

// TestMergeWhileSettlingPaysWhatWasAcked streams one chain from several
// submitters while background workers settle it, so Submits merge into
// rows that batches hold in flight. Every acknowledged tick is paid once,
// every acknowledged claim is counted settled once, and nothing stays
// spooled. Run under -race.
func TestMergeWhileSettlingPaysWhatWasAcked(t *testing.T) {
	const submitters, length = 4, 400
	w := newWorld(t, 2)
	spool, err := db.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := w.pipeOver(spool, 2)
	per := currency.MustParse("0.01")
	chains := []struct {
		cert string
		acct func() currency.Amount
	}{{w.sameCert, func() currency.Amount { return w.avail(w.sameAcct) }}, {w.crossCert, func() currency.Amount { return w.avail(w.crossAcct) }}}
	type tally struct{ accepted, ticks int }
	results := make(chan tally, submitters*len(chains))
	for _, c := range chains {
		ch := w.issue(c.cert, length, per, time.Hour)
		batches := make([][][]micropay.Claim, submitters)
		for i := 1; i <= length; i++ {
			g := i % submitters
			batches[g] = append(batches[g], claimsFor(t, ch, i))
		}
		for g := range batches {
			go func(cert string, mine [][]micropay.Claim) {
				var sum tally
				for _, batch := range mine {
					res, err := pipe.Submit(cert, batch)
					if err != nil {
						t.Errorf("submit: %v", err)
						break
					}
					sum.accepted += res.Accepted
					sum.ticks += res.AcceptedTicks
				}
				results <- sum
			}(c.cert, batches[g])
		}
	}
	var acked tally
	for i := 0; i < submitters*len(chains); i++ {
		r := <-results
		acked.accepted += r.accepted
		acked.ticks += r.ticks
	}
	st, err := pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.Failed != 0 || len(w.spoolRowsOf(spool)) != 0 {
		t.Fatalf("drained = %+v, spool %v", st, w.spoolRowsOf(spool))
	}
	if st.SettledTicks != uint64(acked.ticks) || st.SettledClaims != uint64(acked.accepted) {
		t.Errorf("settled %d ticks / %d claims, acknowledged %d / %d", st.SettledTicks, st.SettledClaims, acked.ticks, acked.accepted)
	}
	for _, c := range chains {
		want, _ := per.MulInt(length)
		if got := c.acct(); got != want {
			t.Errorf("payee %s holds %s, want %s", c.cert, got, want)
		}
	}
	if acked.ticks != len(chains)*length {
		t.Errorf("acknowledged %d ticks, want %d", acked.ticks, len(chains)*length)
	}
	w.assertConserved()
}

// TestUnresolvableRowParksWithoutFailingBoot: a per-chain row stores no
// parties, so recovery and settlement look them up. When the chain or
// its payee's account cannot be found, the node still boots and the row
// parks with the reason.
func TestUnresolvableRowParksWithoutFailingBoot(t *testing.T) {
	for _, tc := range []struct{ name, payeeCert, reason string }{
		{name: "chain gone", reason: "unknown chain"},
		{name: "payee has no account", payeeCert: "CN=nobody", reason: "payee has no"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 2)
			cert := w.sameCert
			if tc.payeeCert != "" {
				cert = tc.payeeCert
			}
			ch := w.issue(cert, 100, currency.MustParse("0.01"), time.Hour)
			serial := ch.Commitment.Serial
			row := &micropay.SpoolRow{Key: serial, Serial: serial, Index: 30, Word: w.word(ch, 30), Claims: 2,
				State: "pending", Enqueued: w.clock}
			raw, err := micropay.EncodeSpoolRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.spool.Update(func(tx *db.Tx) error { return tx.Put(micropay.TableSpool, serial, raw) }); err != nil {
				t.Fatal(err)
			}
			if tc.payeeCert == "" {
				if err := w.red.Delete(serial); err != nil {
					t.Fatal(err)
				}
			}
			w.reboot()
			if st := w.pipe.Status(); st.Pending != 1 {
				t.Fatalf("recovered %+v, want the row pending", st)
			}
			st, err := w.pipe.Drain(5 * time.Second)
			if err != nil || st.Pending != 0 || st.Failed != 1 || st.SettledTicks != 0 {
				t.Fatalf("drain = %+v, %v; want the row parked, nothing paid", st, err)
			}
			if got := w.spoolRows()[serial]; got == nil || !got.Parked() || !strings.Contains(got.Reason, tc.reason) {
				t.Fatalf("spooled row = %+v, want parked mentioning %q", got, tc.reason)
			}
			w.assertConserved()
		})
	}
}

// TestMergeIntoRowInFlightCountsClaimsOnce: a Submit merges into the row
// a settlement batch is redeeming. The batch's clean-up finds the row
// superseded and leaves it; the merged row settles next, and the claims
// the first batch redeemed are counted once, with the merged row.
func TestMergeIntoRowInFlightCountsClaimsOnce(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	if res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20)); err != nil || res.Accepted != 2 {
		t.Fatalf("submit = %+v, %v", res, err)
	}
	reached, release := make(chan struct{}), make(chan struct{})
	w.crash = func(b micropay.Boundary, _ string) error {
		if b == micropay.BoundarySettled && reached != nil {
			close(reached)
			reached = nil
			<-release
		}
		return nil
	}
	settled := make(chan error, 1)
	wait := reached
	go func() {
		_, err := w.pipe.SettleOnce()
		settled <- err
	}()
	<-wait // 20 is paid; its row is not yet cleaned up
	if res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 30, 45)); err != nil || res.Accepted != 2 || res.AcceptedTicks != 25 {
		t.Fatalf("merge = %+v, %v", res, err)
	}
	close(release)
	if err := <-settled; err != nil {
		t.Fatal(err)
	}
	st, err := w.pipe.Drain(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledTicks != 45 || st.SettledClaims != 4 || st.Duplicates != 0 || st.Pending != 0 || len(w.spoolRows()) != 0 {
		t.Fatalf("drained = %+v; want 45 ticks and 4 claims settled once, nothing left", st)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.45") {
		t.Errorf("payee = %s, want 0.45", got)
	}
	w.assertConserved()
}

// TestPutReplacesTheHead: Put writes a chain row whole, so a head left
// by earlier state changes must not shadow it.
func TestPutReplacesTheHead(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 10, w.word(ch, 10), nil); err != nil {
		t.Fatal(err)
	}
	row, err := w.red.Get(ch.Commitment.Serial)
	if err != nil {
		t.Fatal(err)
	}
	row.RedeemedIndex, row.RedeemedWord = 12, w.word(ch, 12)
	if err := w.red.Put(row); err != nil {
		t.Fatal(err)
	}
	if got, err := w.red.Get(ch.Commitment.Serial); err != nil || got.RedeemedIndex != 12 {
		t.Fatalf("after Put: %+v, %v; want the row as put", got, err)
	}
}
