package branch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
)

// branchWorld: two VOs, each with its own CA-issued bank, joined in a
// network; alice banks at VO-A, gsp at VO-B.
type branchWorld struct {
	net       *Network
	brA, brB  *Branch
	alice     *pki.Identity
	gsp       *pki.Identity
	aliceAcct string
	gspAcct   string
	ts        *pki.TrustStore
}

// overShards runs a test over banks of one shard and of two. On two,
// bank A's vostro (account 1) and alice (account 2) hash to different
// shards, so a vostro created or paid behind the ledger's back — on
// shard 0 whatever its ID — is not found where the ledger looks for it.
func overShards(t *testing.T, run func(t *testing.T, w *branchWorld)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { run(t, newBranchWorld(t, n)) })
	}
}

func newBranchWorld(t *testing.T, shards int) *branchWorld {
	t.Helper()
	ca, err := pki.NewCA("Grid Federation CA", "Fed", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := pki.NewTrustStore(ca.Certificate())
	mkBank := func(cn, branchNum string) *core.Bank {
		id, err := ca.Issue(pki.IssueOptions{CommonName: cn, Organization: "Fed"})
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]*db.Store, shards)
		for i := range stores {
			stores[i] = db.MustOpenMemory()
		}
		led, err := shard.New(stores, shard.Config{Branch: branchNum})
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.NewBankWithLedger(led, core.BankConfig{
			Identity: id, Trust: ts, Admins: []string{"CN=root"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bankA := mkBank("gridbank-vo-a", "0001")
	bankB := mkBank("gridbank-vo-b", "0002")
	net := NewNetwork()
	brA, err := net.AddBranch(bankA)
	if err != nil {
		t.Fatal(err)
	}
	brB, err := net.AddBranch(bankB)
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := ca.Issue(pki.IssueOptions{CommonName: "alice", Organization: "VO-A"})
	gsp, _ := ca.Issue(pki.IssueOptions{CommonName: "gsp-b", Organization: "VO-B"})
	aAcct, err := bankA.CreateAccount(alice.SubjectName(), &core.CreateAccountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	gAcct, err := bankB.CreateAccount(gsp.SubjectName(), &core.CreateAccountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bankA.AdminDeposit("CN=root", &core.AdminAmountRequest{AccountID: aAcct.Account.AccountID, Amount: currency.FromG(500)}); err != nil {
		t.Fatal(err)
	}
	return &branchWorld{
		net: net, brA: brA, brB: brB, alice: alice, gsp: gsp,
		aliceAcct: string(aAcct.Account.AccountID), gspAcct: string(gAcct.Account.AccountID), ts: ts,
	}
}

func (w *branchWorld) issueForeignCheque(t *testing.T, amount currency.Amount) *payment.SignedCheque {
	t.Helper()
	resp, err := w.brA.Bank.RequestCheque(w.alice.SubjectName(), &core.RequestChequeRequest{
		AccountID: accountsIDOf(w.aliceAcct), Amount: amount, PayeeCert: w.gsp.SubjectName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &resp.Cheque
}

func TestAddBranchCreatesVostros(t *testing.T) {
	overShards(t, testAddBranchCreatesVostros)
}

func testAddBranchCreatesVostros(t *testing.T, w *branchWorld) {
	vBatA, ok := w.brA.VostroFor("0002")
	if !ok || vBatA.Branch() != "0001" {
		t.Fatalf("vostro B@A = %v, %v", vBatA, ok)
	}
	vAatB, ok := w.brB.VostroFor("0001")
	if !ok || vAatB.Branch() != "0002" {
		t.Fatalf("vostro A@B = %v, %v", vAatB, ok)
	}
	// Duplicate branch numbers refused.
	if _, err := w.net.AddBranch(w.brA.Bank); !errors.Is(err, ErrDupBranch) {
		t.Errorf("dup branch err = %v", err)
	}
	if _, ok := w.net.Branch("0001"); !ok {
		t.Error("branch lookup failed")
	}
}

func TestCrossBranchChequeRedemption(t *testing.T) {
	overShards(t, testCrossBranchChequeRedemption)
}

func testCrossBranchChequeRedemption(t *testing.T, w *branchWorld) {
	cheque := w.issueForeignCheque(t, currency.FromG(100))
	claim := &payment.ChequeClaim{Serial: cheque.Cheque.Serial, Amount: currency.FromG(70), RUR: []byte(`{"job":"x"}`)}
	red, err := w.net.RedeemForeignCheque("0002", w.gsp.SubjectName(), cheque, claim)
	if err != nil {
		t.Fatal(err)
	}
	if red.Paid != currency.FromG(70) || red.IssuingBranch != "0001" || red.PayeeBranch != "0002" {
		t.Fatalf("redemption = %+v", red)
	}
	// Alice paid 70, got 30 back unlocked.
	a, _ := w.brA.Bank.Ledger().Details(accountsIDOf(w.aliceAcct))
	if a.AvailableBalance != currency.FromG(430) || !a.LockedBalance.IsZero() {
		t.Fatalf("alice: %s/%s", a.AvailableBalance, a.LockedBalance)
	}
	// GSP credited at home branch.
	g, _ := w.brB.Bank.Ledger().Details(accountsIDOf(w.gspAcct))
	if g.AvailableBalance != currency.FromG(70) {
		t.Fatalf("gsp: %s", g.AvailableBalance)
	}
	// B's vostro at A holds the interbank obligation.
	vBatA, _ := w.brA.VostroFor("0002")
	v, _ := w.brA.Bank.Ledger().Details(vBatA)
	if v.AvailableBalance != currency.FromG(70) {
		t.Fatalf("vostro = %s", v.AvailableBalance)
	}
	// Double redemption across branches refused.
	if _, err := w.net.RedeemForeignCheque("0002", w.gsp.SubjectName(), cheque, claim); err == nil {
		t.Fatal("foreign double redemption allowed")
	}
}

func TestRedeemForeignValidation(t *testing.T) {
	overShards(t, testRedeemForeignValidation)
}

func testRedeemForeignValidation(t *testing.T, w *branchWorld) {
	cheque := w.issueForeignCheque(t, currency.FromG(10))
	claim := &payment.ChequeClaim{Serial: cheque.Cheque.Serial, Amount: currency.FromG(5)}
	// Unknown home branch.
	if _, err := w.net.RedeemForeignCheque("9999", w.gsp.SubjectName(), cheque, claim); !errors.Is(err, ErrUnknownBranch) {
		t.Errorf("unknown home err = %v", err)
	}
	// Not foreign: presented at the issuing branch.
	if _, err := w.net.RedeemForeignCheque("0001", w.gsp.SubjectName(), cheque, claim); !errors.Is(err, ErrNotForeign) {
		t.Errorf("not-foreign err = %v", err)
	}
	// Wrong payee.
	if _, err := w.net.RedeemForeignCheque("0002", "CN=thief,O=VO-B", cheque, claim); err == nil {
		t.Error("wrong payee accepted")
	}
	// Payee with no account at home branch.
	orphanCheque := w.issueForeignCheque(t, currency.FromG(10))
	// re-make cheque for an identity without an account: use alice as payee at branch B
	resp, err := w.brA.Bank.RequestCheque(w.alice.SubjectName(), &core.RequestChequeRequest{
		AccountID: accountsIDOf(w.aliceAcct), Amount: currency.FromG(5), PayeeCert: "CN=nobody,O=VO-B",
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = orphanCheque
	if _, err := w.net.RedeemForeignCheque("0002", "CN=nobody,O=VO-B", &resp.Cheque,
		&payment.ChequeClaim{Serial: resp.Cheque.Cheque.Serial, Amount: currency.FromG(1)}); err == nil {
		t.Error("accountless payee accepted")
	}
}

func TestSettlePairNettingFull(t *testing.T) {
	overShards(t, testSettlePairNettingFull)
}

func testSettlePairNettingFull(t *testing.T, w *branchWorld) {
	// A→B flow: alice's cheque to gsp (70).
	cheque := w.issueForeignCheque(t, currency.FromG(70))
	if _, err := w.net.RedeemForeignCheque("0002", w.gsp.SubjectName(), cheque,
		&payment.ChequeClaim{Serial: cheque.Cheque.Serial, Amount: currency.FromG(70)}); err != nil {
		t.Fatal(err)
	}
	// B→A flow: fund gsp's account and have it pay alice (30) with a
	// cheque drawn on B.
	resp, err := w.brB.Bank.RequestCheque(w.gsp.SubjectName(), &core.RequestChequeRequest{
		AccountID: accountsIDOf(w.gspAcct), Amount: currency.FromG(30), PayeeCert: w.alice.SubjectName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.net.RedeemForeignCheque("0001", w.alice.SubjectName(), &resp.Cheque,
		&payment.ChequeClaim{Serial: resp.Cheque.Cheque.Serial, Amount: currency.FromG(30)}); err != nil {
		t.Fatal(err)
	}
	// Net: A owes B 70, B owes A 30 → offset 30, residual 40 paid by A.
	st, err := w.net.SettlePair("0001", "0002")
	if err != nil {
		t.Fatal(err)
	}
	if st.GrossAtoB != currency.FromG(70) || st.GrossBtoA != currency.FromG(30) {
		t.Fatalf("gross = %s / %s", st.GrossAtoB, st.GrossBtoA)
	}
	if st.Netted != currency.FromG(30) || st.NetPayer != "0001" || st.NetAmount != currency.FromG(40) {
		t.Fatalf("settlement = %+v", st)
	}
	// Vostros zeroed after settlement.
	vBatA, _ := w.brA.VostroFor("0002")
	v1, _ := w.brA.Bank.Ledger().Details(vBatA)
	vAatB, _ := w.brB.VostroFor("0001")
	v2, _ := w.brB.Bank.Ledger().Details(vAatB)
	if !v1.AvailableBalance.IsZero() || !v2.AvailableBalance.IsZero() {
		t.Fatalf("vostros not cleared: %s / %s", v1.AvailableBalance, v2.AvailableBalance)
	}
	// Settling again is a no-op.
	st2, err := w.net.SettlePair("0001", "0002")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Netted.IsZero() || !st2.NetAmount.IsZero() {
		t.Fatalf("idle settlement = %+v", st2)
	}
	if _, err := w.net.SettlePair("0001", "9999"); !errors.Is(err, ErrUnknownBranch) {
		t.Errorf("unknown pair err = %v", err)
	}
}

func accountsIDOf(s string) accounts.ID { return accounts.ID(s) }
