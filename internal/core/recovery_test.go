package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// TestRedemptionSurvivesRestart: the double-spend registry is durable —
// a cheque redeemed before a crash cannot be redeemed again after
// journal replay, and locked funds state is intact.
func TestRedemptionSurvivesRestart(t *testing.T) {
	ca, err := pki.NewCA("CA", "VO", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bankID, _ := ca.Issue(pki.IssueOptions{CommonName: "bank"})
	alice, _ := ca.Issue(pki.IssueOptions{CommonName: "alice"})
	gsp, _ := ca.Issue(pki.IssueOptions{CommonName: "gsp"})
	ts := pki.NewTrustStore(ca.Certificate())
	journal := db.NewMemJournal()

	store1, _ := db.Open(journal)
	bank1, err := NewBank(store1, BankConfig{Identity: bankID, Trust: ts, Admins: []string{"CN=root"}})
	if err != nil {
		t.Fatal(err)
	}
	aAcct, err := bank1.CreateAccount(alice.SubjectName(), &CreateAccountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bank1.CreateAccount(gsp.SubjectName(), &CreateAccountRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bank1.AdminDeposit("CN=root", &AdminAmountRequest{AccountID: aAcct.Account.AccountID, Amount: currency.FromG(100)}); err != nil {
		t.Fatal(err)
	}
	// Two cheques: one redeemed pre-crash, one left outstanding.
	redeemed, err := bank1.RequestCheque(alice.SubjectName(), &RequestChequeRequest{
		AccountID: aAcct.Account.AccountID, Amount: currency.FromG(30), PayeeCert: gsp.SubjectName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	outstanding, err := bank1.RequestCheque(alice.SubjectName(), &RequestChequeRequest{
		AccountID: aAcct.Account.AccountID, Amount: currency.FromG(20), PayeeCert: gsp.SubjectName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bank1.RedeemCheque(gsp.SubjectName(), &RedeemChequeRequest{
		Cheque: redeemed.Cheque,
		Claim:  payment.ChequeClaim{Serial: redeemed.Cheque.Cheque.Serial, Amount: currency.FromG(30)},
	}); err != nil {
		t.Fatal(err)
	}

	// Crash: rebuild everything from the journal.
	store2, err := db.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	bank2, err := NewBank(store2, BankConfig{Identity: bankID, Trust: ts})
	if err != nil {
		t.Fatal(err)
	}
	// The pre-crash redemption is remembered.
	if _, err := bank2.RedeemCheque(gsp.SubjectName(), &RedeemChequeRequest{
		Cheque: redeemed.Cheque,
		Claim:  payment.ChequeClaim{Serial: redeemed.Cheque.Cheque.Serial, Amount: currency.FromG(1)},
	}); !errors.Is(err, ErrAlreadyRedeemed) {
		t.Fatalf("post-restart double redeem err = %v", err)
	}
	// The outstanding cheque's lock survived and it redeems normally.
	a, err := bank2.Ledger().Details(aAcct.Account.AccountID)
	if err != nil {
		t.Fatal(err)
	}
	if a.LockedBalance != currency.FromG(20) {
		t.Fatalf("post-restart lock = %s", a.LockedBalance)
	}
	red, err := bank2.RedeemCheque(gsp.SubjectName(), &RedeemChequeRequest{
		Cheque: outstanding.Cheque,
		Claim:  payment.ChequeClaim{Serial: outstanding.Cheque.Cheque.Serial, Amount: currency.FromG(20)},
	})
	if err != nil || red.Paid != currency.FromG(20) {
		t.Fatalf("post-restart redeem = %+v, %v", red, err)
	}
	total, err := bank2.Ledger().TotalBalance()
	if err != nil || total != currency.FromG(100) {
		t.Fatalf("post-restart total = %s, %v", total, err)
	}
}

// TestChainIncrementalRedemptionProperty: for any increasing sequence of
// claim indices, the total paid equals finalIndex × perWord and the
// drawer's lock shrinks in step. (Property-style over random batch
// plans.)
func TestChainIncrementalRedemptionProperty(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		w := newTestWorld(t)
		const length = 60
		perWord := currency.MustParse("0.1")
		resp, err := w.bank.RequestChain(w.alice.SubjectName(), &RequestChainRequest{
			AccountID: w.aliceAcct.AccountID, PayeeCert: w.gsp.SubjectName(),
			Length: length, PerWord: perWord,
		})
		if err != nil {
			t.Fatal(err)
		}
		chain := &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}
		// Random increasing batch boundaries.
		var indices []int
		cur := 0
		for cur < length {
			cur += 1 + rng.Intn(20)
			if cur > length {
				cur = length
			}
			indices = append(indices, cur)
		}
		var paid currency.Amount
		for _, idx := range indices {
			word, err := chain.Word(idx)
			if err != nil {
				t.Fatal(err)
			}
			red, err := w.bank.RedeemChain(w.gsp.SubjectName(), &RedeemChainRequest{
				Chain: resp.Chain,
				Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: idx, Word: word},
			})
			if err != nil {
				t.Fatalf("trial %d idx %d: %v", trial, idx, err)
			}
			paid = paid.MustAdd(red.Paid)
		}
		final := indices[len(indices)-1]
		want, err := perWord.MulInt(int64(final))
		if err != nil {
			t.Fatal(err)
		}
		if paid != want {
			t.Fatalf("trial %d: paid %s, want %s (batches %v)", trial, paid, want, indices)
		}
		gspAvail, _ := w.balance(t, w.gspAcct.AccountID)
		if gspAvail != want {
			t.Fatalf("trial %d: gsp balance %s, want %s", trial, gspAvail, want)
		}
		// Lock shrank exactly by what was paid.
		_, locked := w.balance(t, w.aliceAcct.AccountID)
		total, _ := perWord.MulInt(length)
		if locked != total.MustSub(want) {
			t.Fatalf("trial %d: locked %s", trial, locked)
		}
	}
}
