package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
	"gridbank/internal/shard/simtest"
)

// chequeWorld is a sharded bank over crash-survivable journals: reboot
// replays every store from its journal and rebuilds ledger and bank, as
// a process restart would.
type chequeWorld struct {
	t        *testing.T
	ca       *pki.CA
	journals []*simtest.Journal
	stores   []*db.Store
	led      *shard.Ledger
	bank     *Bank
	bankID   *pki.Identity
	trust    *pki.TrustStore
	now      time.Time

	drawer     *pki.Identity
	drawerAcct accounts.ID
	payees     int
}

const chequeAdmin = "CN=cheque-admin"

func newChequeWorld(t *testing.T, shards int) *chequeWorld {
	t.Helper()
	ca, err := pki.NewCA("Cheque CA", "VO-CQ", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w := &chequeWorld{t: t, ca: ca, trust: pki.NewTrustStore(ca.Certificate()), now: time.Now()}
	w.bankID = w.issue("gridbank", true)
	for i := 0; i < shards; i++ {
		w.journals = append(w.journals, simtest.NewJournal())
	}
	w.reboot()
	// The drawer lives off the metadata shard, where an older binary
	// kept every cheque row: the placements that used to differ.
	for i := 0; w.drawer == nil || w.led.ShardStore(w.led.ShardFor(w.drawerAcct)) == w.led.Store(); i++ {
		w.drawer = w.issue(fmt.Sprintf("drawer-%d", i), false)
		w.drawerAcct = w.open(w.drawer)
	}
	if _, err := w.bank.AdminDeposit(chequeAdmin, &AdminAmountRequest{AccountID: w.drawerAcct, Amount: currency.FromG(100)}); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *chequeWorld) issue(cn string, server bool) *pki.Identity {
	w.t.Helper()
	id, err := w.ca.Issue(pki.IssueOptions{CommonName: cn, Organization: "VO-CQ", IsServer: server})
	if err != nil {
		w.t.Fatal(err)
	}
	return id
}

func (w *chequeWorld) open(id *pki.Identity) accounts.ID {
	w.t.Helper()
	resp, err := w.bank.CreateAccount(id.SubjectName(), &CreateAccountRequest{})
	if err != nil {
		w.t.Fatal(err)
	}
	return resp.Account.AccountID
}

// reboot discards every in-memory store and rebuilds the stack from the
// journals; shard.New runs cross-shard recovery.
func (w *chequeWorld) reboot() {
	w.t.Helper()
	w.stores = w.stores[:0]
	for _, j := range w.journals {
		j.Revive()
		st, err := db.Open(j)
		if err != nil {
			w.t.Fatal(err)
		}
		w.stores = append(w.stores, st)
	}
	clock := func() time.Time { return w.now }
	led, err := shard.New(w.stores, shard.Config{Now: clock})
	if err != nil {
		w.t.Fatal(err)
	}
	bank, err := NewBankWithLedger(led, BankConfig{Identity: w.bankID, Trust: w.trust, Admins: []string{chequeAdmin}, Now: clock})
	if err != nil {
		w.t.Fatal(err)
	}
	w.led, w.bank = led, bank
}

// payee opens accounts for fresh identities until one lands on (cross:
// off) the drawer's shard.
func (w *chequeWorld) payee(cross bool) (*pki.Identity, accounts.ID) {
	w.t.Helper()
	for {
		w.payees++
		id := w.issue(fmt.Sprintf("payee-%d", w.payees), false)
		acct := w.open(id)
		if (w.led.ShardFor(acct) != w.led.ShardFor(w.drawerAcct)) == cross {
			return id, acct
		}
	}
}

func (w *chequeWorld) cheque(payee *pki.Identity, limitG int64) payment.SignedCheque {
	w.t.Helper()
	resp, err := w.bank.RequestCheque(w.drawer.SubjectName(), &RequestChequeRequest{
		AccountID: w.drawerAcct, Amount: currency.FromG(limitG), PayeeCert: payee.SubjectName(), TTL: time.Hour,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return resp.Cheque
}

func (w *chequeWorld) redeem(payee *pki.Identity, sc payment.SignedCheque, amountG int64) (*RedeemChequeResponse, error) {
	return w.bank.RedeemCheque(payee.SubjectName(), &RedeemChequeRequest{
		Cheque: sc,
		Claim:  payment.ChequeClaim{Serial: sc.Cheque.Serial, Amount: currency.FromG(amountG), RUR: []byte("<rur/>")},
	})
}

func (w *chequeWorld) balances(id accounts.ID) (avail, locked currency.Amount) {
	w.t.Helper()
	a, err := w.led.Details(id)
	if err != nil {
		w.t.Fatal(err)
	}
	return a.AvailableBalance, a.LockedBalance
}

func (w *chequeWorld) conserved(wantG int64) {
	w.t.Helper()
	if total, err := w.led.TotalBalance(); err != nil || total != currency.FromG(wantG) {
		w.t.Fatalf("conservation: total %v, %v (want %d G$)", total, err, wantG)
	}
	if esc, err := w.led.PendingEscrow(); err != nil || !esc.IsZero() {
		w.t.Fatalf("escrow at quiesce: %v, %v", esc, err)
	}
}

// TestChequeRedeemCrashCannotPayTwice is the cheque crash window: two
// outstanding cheques on one drawer, the process dies after the first
// one's money has moved. When the money move and the row's flip to
// redeemed were separate transactions the restarted bank still held the
// first cheque "outstanding" with its lock spent, and re-presenting it
// paid a second time out of the second cheque's lock.
func TestChequeRedeemCrashCannotPayTwice(t *testing.T) {
	for _, step := range []shard.Step{shard.StepPrepared, shard.StepCreditApplied, shard.StepFinalized} {
		t.Run(step.String(), func(t *testing.T) {
			w := newChequeWorld(t, 2)
			payee, payeeAcct := w.payee(true)
			first, second := w.cheque(payee, 20), w.cheque(payee, 20)

			w.led.CrashHook = func(_ string, s shard.Step) error {
				if s == step {
					return errors.New("injected process death")
				}
				return nil
			}
			if _, err := w.redeem(payee, first, 20); err == nil {
				t.Fatalf("redeem survived a process death at %s", step)
			}
			w.reboot()

			if _, err := w.redeem(payee, first, 20); !errors.Is(err, ErrAlreadyRedeemed) {
				t.Fatalf("re-presenting the paid cheque = %v, want ErrAlreadyRedeemed", err)
			}
			if got, _ := w.balances(payeeAcct); got != currency.FromG(20) {
				t.Fatalf("payee holds %v after crash + re-present, want exactly one 20 G$ payment", got)
			}
			if _, locked := w.balances(w.drawerAcct); locked != currency.FromG(20) {
				t.Fatalf("drawer lock = %v, want the second cheque's 20 G$ intact", locked)
			}
			resp, err := w.redeem(payee, second, 15)
			if err != nil {
				t.Fatalf("second cheque no longer redeemable: %v", err)
			}
			if resp.Paid != currency.FromG(15) || resp.Released != currency.FromG(5) {
				t.Fatalf("second redeem = %+v", resp)
			}
			avail, locked := w.balances(w.drawerAcct)
			if avail != currency.FromG(65) || !locked.IsZero() {
				t.Fatalf("drawer = %v available / %v locked, want 65 / 0", avail, locked)
			}
			if got, _ := w.balances(payeeAcct); got != currency.FromG(35) {
				t.Fatalf("payee = %v, want 35 G$", got)
			}
			w.conserved(100)
		})
	}
}

// commitBatches subscribes to every shard's commit stream and returns a
// function reporting, per shard, the tables each committed transaction
// since the subscription touched.
func (w *chequeWorld) commitBatches() func() [][]map[string]bool {
	w.t.Helper()
	subs := make([]*db.CommitSub, len(w.stores))
	for i, st := range w.stores {
		sub, err := st.SubscribeCommits(64)
		if err != nil {
			w.t.Fatal(err)
		}
		subs[i] = sub
	}
	return func() [][]map[string]bool {
		out := make([][]map[string]bool, len(subs))
		for i, sub := range subs {
			sub.Close()
			for batch := range sub.C() {
				tables := make(map[string]bool)
				for _, e := range batch {
					tables[e.Table] = true
				}
				out[i] = append(out[i], tables)
			}
		}
		return out
	}
}

// TestChequeOperationsAreOneTransactionPerShard pins the commit shape:
// issue, same-shard redeem and release are each ONE transaction on the
// drawer's shard holding the cheque row and the ledger effect together;
// a cross-shard redeem adds exactly one transaction on the payee's
// shard (plus the outbox-row cleanup on the drawer's).
func TestChequeOperationsAreOneTransactionPerShard(t *testing.T) {
	w := newChequeWorld(t, 2)
	home := w.led.ShardFor(w.drawerAcct)
	local, _ := w.payee(false)
	remote, _ := w.payee(true)

	one := func(what string, got [][]map[string]bool, tables ...string) {
		t.Helper()
		if len(got[home]) != 1 || len(got[1-home]) != 0 {
			t.Fatalf("%s committed %d transactions on the drawer's shard and %d elsewhere, want 1 and 0", what, len(got[home]), len(got[1-home]))
		}
		for _, table := range tables {
			if !got[home][0][table] {
				t.Fatalf("%s: its one transaction does not touch %q: %v", what, table, got[home][0])
			}
		}
	}

	done := w.commitBatches()
	sc := w.cheque(local, 20)
	one("RequestCheque", done(), tableCheques, "accounts", "transactions")

	done = w.commitBatches()
	if _, err := w.redeem(local, sc, 12); err != nil {
		t.Fatal(err)
	}
	one("same-shard RedeemCheque", done(), tableCheques, "accounts", "transactions", "transfers")

	sc = w.cheque(remote, 20)
	done = w.commitBatches()
	if _, err := w.redeem(remote, sc, 12); err != nil {
		t.Fatal(err)
	}
	got := done()
	if len(got[home]) != 2 || len(got[1-home]) != 1 {
		t.Fatalf("cross-shard RedeemCheque committed %d + %d transactions, want commit point + cleanup and one credit", len(got[home]), len(got[1-home]))
	}
	if cp := got[home][0]; !cp[tableCheques] || !cp["accounts"] || !cp["transfers"] || !cp["pc_transfers"] {
		t.Fatalf("commit-point transaction touches %v", cp)
	}
	if cl := got[home][1]; len(cl) != 1 || !cl["pc_transfers"] {
		t.Fatalf("cleanup transaction touches %v, want only the outbox row", cl)
	}

	sc = w.cheque(remote, 20)
	w.now = w.now.Add(2 * time.Hour)
	done = w.commitBatches()
	if _, err := w.bank.ReleaseCheque(w.drawer.SubjectName(), &ReleaseRequest{Serial: sc.Cheque.Serial}); err != nil {
		t.Fatal(err)
	}
	one("ReleaseCheque", done(), tableCheques, "accounts", "transactions")
	w.conserved(100)
}

// TestChequeReleaseCrashKeepsGuarantee kills one shard under a release,
// each in turn. Whether the release then fails or succeeds, after a
// reboot the lock and the cheque agree: funds still locked and the
// cheque still outstanding, or funds free and the cheque released —
// never "funds free, payee still holding a live cheque", which is what
// an unlock and a row flip in two transactions left behind.
func TestChequeReleaseCrashKeepsGuarantee(t *testing.T) {
	for victim := 0; victim < 2; victim++ {
		t.Run(fmt.Sprintf("shard-%d", victim), func(t *testing.T) {
			w := newChequeWorld(t, 2)
			payee, _ := w.payee(true)
			sc := w.cheque(payee, 20)
			issued := w.now
			w.now = issued.Add(2 * time.Hour)

			w.journals[victim].Kill()
			_, relErr := w.bank.ReleaseCheque(w.drawer.SubjectName(), &ReleaseRequest{Serial: sc.Cheque.Serial})
			w.reboot()

			avail, locked := w.balances(w.drawerAcct)
			w.now = issued.Add(time.Minute) // inside the cheque's validity
			_, redeemErr := w.redeem(payee, sc, 5)
			switch {
			case relErr != nil && locked == currency.FromG(20) && redeemErr == nil:
				// The release failed as a whole; the guarantee held.
			case relErr == nil && locked.IsZero() && avail == currency.FromG(100) && errors.Is(redeemErr, ErrAlreadyRedeemed):
				// The release happened as a whole.
			default:
				t.Fatalf("release = %v, then %v available / %v locked and redeem = %v", relErr, avail, locked, redeemErr)
			}
			w.conserved(100)
		})
	}
}

// TestChequeRowsMoveHomeAtBoot plants cheque rows where an older binary
// registered them — the metadata store — and checks the next boot moves
// each to its drawer's shard exactly once, finishing a move a crash
// interrupted between its two transactions.
func TestChequeRowsMoveHomeAtBoot(t *testing.T) {
	w := newChequeWorld(t, 2)
	payee, payeeAcct := w.payee(false)
	// A second drawer on the other shard, so one drawer's home is the
	// metadata store and one's is not.
	drawers := map[accounts.ID]*pki.Identity{w.drawerAcct: w.drawer}
	for len(drawers) < 2 {
		id := w.issue(fmt.Sprintf("drawer-%d", len(drawers)+w.payees), false)
		w.payees++
		acct := w.open(id)
		if w.led.ShardFor(acct) == w.led.ShardFor(w.drawerAcct) {
			continue
		}
		if _, err := w.bank.AdminDeposit(chequeAdmin, &AdminAmountRequest{AccountID: acct, Amount: currency.FromG(100)}); err != nil {
			t.Fatal(err)
		}
		drawers[acct] = id
	}
	meta := w.led.Store()
	var atHome, legacy, interrupted payment.SignedCheque
	for acct, id := range drawers {
		issue := func() payment.SignedCheque {
			resp, err := w.bank.RequestCheque(id.SubjectName(), &RequestChequeRequest{
				AccountID: acct, Amount: currency.FromG(10), PayeeCert: payee.SubjectName(), TTL: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			return resp.Cheque
		}
		home := w.led.ShardStore(w.led.ShardFor(acct))
		if home == meta {
			atHome = issue()
			continue
		}
		// Put the rows back on the metadata store, as the old layout
		// had them; for one, leave the home copy behind too — the
		// picture a crash between "write home" and "delete stray"
		// leaves.
		legacy, interrupted = issue(), issue()
		for _, sc := range []payment.SignedCheque{legacy, interrupted} {
			raw, err := home.Get(tableCheques, sc.Cheque.Serial)
			if err != nil {
				t.Fatal(err)
			}
			if err := meta.Update(func(tx *db.Tx) error { return tx.Put(tableCheques, sc.Cheque.Serial, raw) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := home.Update(func(tx *db.Tx) error { return tx.Delete(tableCheques, legacy.Cheque.Serial) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // the move is idempotent
		w.reboot()
	}
	for _, sc := range []payment.SignedCheque{atHome, legacy, interrupted} {
		for i, st := range w.stores {
			_, err := st.Get(tableCheques, sc.Cheque.Serial)
			if home := i == w.led.ShardFor(sc.Cheque.DrawerAccountID); home != (err == nil) {
				t.Fatalf("cheque of %s on shard %d: %v (home=%v)", sc.Cheque.DrawerAccountID, i, err, home)
			}
		}
		if _, err := w.redeem(payee, sc, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := w.balances(payeeAcct); got != currency.FromG(30) {
		t.Fatalf("payee = %v, want 30 G$", got)
	}
	w.conserved(200)
}
