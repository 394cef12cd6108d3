package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// requestChain issues a fresh chain for the standard world: alice pays
// gsp, length words at perWord each, default 24h TTL.
func requestChain(t *testing.T, w *testWorld, length int, perWord currency.Amount) (*RequestChainResponse, *payment.Chain) {
	t.Helper()
	resp, err := w.bank.RequestChain(w.alice.SubjectName(), &RequestChainRequest{
		AccountID: w.aliceAcct.AccountID, PayeeCert: w.gsp.SubjectName(), Length: length, PerWord: perWord,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp, &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}
}

func chainWord(t *testing.T, ch *payment.Chain, i int) []byte {
	t.Helper()
	w, err := ch.Word(i)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRedeemChainTamperedWrapperRefused regresses the authorization
// bug: RedeemChain once trusted wrapper fields (drawer account,
// currency, expiry) that VerifyChain never compared against the signed
// payload. Every wrapper field a payee could profit from rewriting must
// now sink the redemption outright, with no money moved.
func TestRedeemChainTamperedWrapperRefused(t *testing.T) {
	cases := map[string]func(*payment.ChainCommitment){
		"DrawerAccountID": func(cc *payment.ChainCommitment) { cc.DrawerAccountID = "01-0001-00009999" },
		"DrawerCert":      func(cc *payment.ChainCommitment) { cc.DrawerCert = "CN=mallory,O=VO-A" },
		"Currency":        func(cc *payment.ChainCommitment) { cc.Currency = "USD" },
		"Expires":         func(cc *payment.ChainCommitment) { cc.Expires = cc.Expires.Add(240 * time.Hour) },
		"PerWord":         func(cc *payment.ChainCommitment) { cc.PerWord = currency.FromG(500) },
		"Length":          func(cc *payment.ChainCommitment) { cc.Length *= 2 },
	}
	for field, mutate := range cases {
		t.Run(field, func(t *testing.T) {
			w := newTestWorld(t)
			resp, chain := requestChain(t, w, 10, currency.FromG(1))
			tampered := resp.Chain
			mutate(&tampered.Commitment)
			_, err := w.bank.RedeemChain(w.gsp.SubjectName(), &RedeemChainRequest{
				Chain: tampered,
				Claim: payment.ChainClaim{Serial: tampered.Commitment.Serial, Index: 3, Word: chainWord(t, chain, 3)},
			})
			if err == nil {
				t.Fatalf("redemption with tampered wrapper %s accepted", field)
			}
			if avail, _ := w.balance(t, w.gspAcct.AccountID); !avail.IsZero() {
				t.Fatalf("payee paid %s through tampered wrapper", avail)
			}
			if _, locked := w.balance(t, w.aliceAcct.AccountID); locked != currency.FromG(10) {
				t.Fatalf("drawer lock disturbed: %s", locked)
			}
		})
	}
}

// TestRedeemChainWrongPayee: a third party holding a copy of the signed
// chain and a leaked word cannot redeem an instrument made out to
// someone else.
func TestRedeemChainWrongPayee(t *testing.T) {
	w := newTestWorld(t)
	resp, chain := requestChain(t, w, 10, currency.FromG(1))
	mallory, err := w.ca.Issue(pki.IssueOptions{CommonName: "mallory", Organization: "VO-A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.bank.CreateAccount(mallory.SubjectName(), &CreateAccountRequest{OrganizationName: "VO-A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.bank.RedeemChain(mallory.SubjectName(), &RedeemChainRequest{
		Chain: resp.Chain,
		Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 4, Word: chainWord(t, chain, 4)},
	}); !errors.Is(err, payment.ErrWrongPayee) {
		t.Fatalf("wrong payee err = %v", err)
	}
}

// TestRedeemChainClaimSerialMismatch: a claim for chain A presented
// with chain B's (valid, signed) wrapper is refused before any word
// verification.
func TestRedeemChainClaimSerialMismatch(t *testing.T) {
	w := newTestWorld(t)
	respA, chainA := requestChain(t, w, 10, currency.FromG(1))
	respB, _ := requestChain(t, w, 10, currency.FromG(1))
	_ = respA
	if _, err := w.bank.RedeemChain(w.gsp.SubjectName(), &RedeemChainRequest{
		Chain: respB.Chain,
		Claim: payment.ChainClaim{Serial: chainA.Commitment.Serial, Index: 2, Word: chainWord(t, chainA, 2)},
	}); err == nil {
		t.Fatal("cross-chain claim accepted")
	}
	if avail, _ := w.balance(t, w.gspAcct.AccountID); !avail.IsZero() {
		t.Fatalf("payee paid %s", avail)
	}
}

// TestChainExpiryGates pins the redemption/release disjointness at the
// bank level: redemption works strictly before Expires and fails after,
// release is refused before Expires and works after — the two gates can
// never both admit.
func TestChainExpiryGates(t *testing.T) {
	w := newTestWorld(t)
	resp, chain := requestChain(t, w, 10, currency.FromG(1))

	// Before expiry: redemption admitted, release refused.
	if _, err := w.bank.RedeemChain(w.gsp.SubjectName(), &RedeemChainRequest{
		Chain: resp.Chain,
		Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 3, Word: chainWord(t, chain, 3)},
	}); err != nil {
		t.Fatalf("pre-expiry redeem: %v", err)
	}
	if _, err := w.bank.ReleaseChain(w.alice.SubjectName(), &ReleaseRequest{Serial: chain.Commitment.Serial}); !errors.Is(err, ErrNotExpired) {
		t.Fatalf("pre-expiry release err = %v", err)
	}

	// After expiry: redemption refused (the word is genuine — only time
	// has passed), release admitted for exactly the remainder.
	w.clock.Advance(25 * time.Hour)
	if _, err := w.bank.RedeemChain(w.gsp.SubjectName(), &RedeemChainRequest{
		Chain: resp.Chain,
		Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 7, Word: chainWord(t, chain, 7)},
	}); !errors.Is(err, payment.ErrExpired) {
		t.Fatalf("post-expiry redeem err = %v", err)
	}
	rel, err := w.bank.ReleaseChain(w.alice.SubjectName(), &ReleaseRequest{Serial: chain.Commitment.Serial})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Released != currency.FromG(7) {
		t.Fatalf("released = %s, want 7 G$", rel.Released)
	}
	// And only once.
	if _, err := w.bank.ReleaseChain(w.alice.SubjectName(), &ReleaseRequest{Serial: chain.Commitment.Serial}); !errors.Is(err, ErrAlreadyRedeemed) {
		t.Fatalf("double release err = %v", err)
	}
	avail, locked := w.balance(t, w.aliceAcct.AccountID)
	if !locked.IsZero() || avail != currency.FromG(997) {
		t.Fatalf("drawer = %s/%s", avail, locked)
	}
}

// TestLongTTLChainNotReleasableEarly: at the longest TTL the bank issues,
// the expiry survives the chain row's storage, so the drawer cannot
// release the lock early; a longer TTL is refused before anything locks.
func TestLongTTLChainNotReleasableEarly(t *testing.T) {
	w := newTestWorld(t)
	req := &RequestChainRequest{AccountID: w.aliceAcct.AccountID, PayeeCert: w.gsp.SubjectName(),
		Length: 10, PerWord: currency.FromG(1), TTL: 250 * 365 * 24 * time.Hour}
	if _, err := w.bank.RequestChain(w.alice.SubjectName(), req); err == nil {
		t.Fatal("250-year chain issued")
	}
	if _, locked := w.balance(t, w.aliceAcct.AccountID); !locked.IsZero() {
		t.Fatalf("refused chain locked %s", locked)
	}
	req.TTL = maxChainTTL
	resp, err := w.bank.RequestChain(w.alice.SubjectName(), req)
	if err != nil {
		t.Fatal(err)
	}
	w.clock.Advance(maxChainTTL - time.Hour)
	if _, err := w.bank.ReleaseChain(w.alice.SubjectName(), &ReleaseRequest{Serial: resp.Chain.Commitment.Serial}); !errors.Is(err, ErrNotExpired) {
		t.Fatalf("release an hour before expiry err = %v", err)
	}
	if _, locked := w.balance(t, w.aliceAcct.AccountID); locked != currency.FromG(10) {
		t.Fatalf("locked = %s, want 10 G$", locked)
	}
}

// TestReleaseVsInFlightRedeemRace drives redemption and release
// concurrently across the expiry instant. Whatever interleaving the
// scheduler picks, the per-serial lock plus single-transaction commits
// must keep the books exact: paid + released == chain total, nothing
// locked, nobody double-paid.
func TestReleaseVsInFlightRedeemRace(t *testing.T) {
	w := newTestWorld(t)
	const length = 400
	perWord := currency.MustParse("0.01")
	resp, err := w.bank.RequestChain(w.alice.SubjectName(), &RequestChainRequest{
		AccountID: w.aliceAcct.AccountID, PayeeCert: w.gsp.SubjectName(),
		Length: length, PerWord: perWord,
		TTL: 150 * time.Millisecond, // fakeClock ticks 1ms per Now(): expiry lands mid-stream
	})
	if err != nil {
		t.Fatal(err)
	}
	chain := &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the GSP, redeeming word by word until the chain goes dead
		defer wg.Done()
		for i := 1; i <= length; i++ {
			word, err := chain.Word(i)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := w.bank.RedeemChain(w.gsp.SubjectName(), &RedeemChainRequest{
				Chain: resp.Chain,
				Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: i, Word: word},
			}); err != nil {
				if errors.Is(err, payment.ErrExpired) || errors.Is(err, ErrAlreadyRedeemed) {
					return // chain expired or released under us: both legitimate ends
				}
				t.Errorf("redeem %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // the drawer, hammering release until the gate opens
		defer wg.Done()
		for {
			_, err := w.bank.ReleaseChain(w.alice.SubjectName(), &ReleaseRequest{Serial: chain.Commitment.Serial})
			if err == nil {
				return
			}
			if !errors.Is(err, ErrNotExpired) {
				t.Errorf("release: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	gspAvail, gspLocked := w.balance(t, w.gspAcct.AccountID)
	aliceAvail, aliceLocked := w.balance(t, w.aliceAcct.AccountID)
	if !gspLocked.IsZero() || !aliceLocked.IsZero() {
		t.Fatalf("funds still locked after settlement: gsp %s, alice %s", gspLocked, aliceLocked)
	}
	// Conservation: every microdollar is either paid to the GSP or back
	// with the drawer — no delta vanished, none was paid twice.
	got, err := gspAvail.Add(aliceAvail)
	if err != nil {
		t.Fatal(err)
	}
	if want := currency.FromG(1000); got != want {
		t.Fatalf("conservation broken: gsp %s + alice %s = %s, want %s", gspAvail, aliceAvail, got, want)
	}
}

// TestChainReplayAcrossBankRestart rebuilds the bank over the same
// store and replays a settled claim: the refusal must come from the
// durable chain row, not from any in-memory state the restart erased.
func TestChainReplayAcrossBankRestart(t *testing.T) {
	ca, err := pki.NewCA("Test Grid CA", "VO-A", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cn string) *pki.Identity {
		id, err := ca.Issue(pki.IssueOptions{CommonName: cn, Organization: "VO-A"})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	bankID, alice, gsp, admin := mk("gridbank"), mk("alice"), mk("gsp1"), mk("banker")
	ts := pki.NewTrustStore(ca.Certificate())
	clock := &fakeClock{t: time.Now()}
	store := db.MustOpenMemory()
	cfg := BankConfig{Identity: bankID, Trust: ts, Admins: []string{admin.SubjectName()}, Now: clock.Now}

	bank1, err := NewBank(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := bank1.CreateAccount(alice.SubjectName(), &CreateAccountRequest{OrganizationName: "VO-A"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bank1.CreateAccount(gsp.SubjectName(), &CreateAccountRequest{OrganizationName: "VO-A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bank1.AdminDeposit(admin.SubjectName(), &AdminAmountRequest{AccountID: ar.Account.AccountID, Amount: currency.FromG(100)}); err != nil {
		t.Fatal(err)
	}
	resp, err := bank1.RequestChain(alice.SubjectName(), &RequestChainRequest{
		AccountID: ar.Account.AccountID, PayeeCert: gsp.SubjectName(), Length: 10, PerWord: currency.FromG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	chain := &payment.Chain{Commitment: resp.Chain.Commitment, Seed: resp.Seed}
	w6, _ := chain.Word(6)
	if _, err := bank1.RedeemChain(gsp.SubjectName(), &RedeemChainRequest{
		Chain: resp.Chain,
		Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 6, Word: w6},
	}); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second bank over the same store.
	bank2, err := NewBank(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bank2.RedeemChain(gsp.SubjectName(), &RedeemChainRequest{
		Chain: resp.Chain,
		Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 6, Word: w6},
	}); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("replay after restart err = %v", err)
	}
	// Progress beyond the durable index still works.
	w9, _ := chain.Word(9)
	red, err := bank2.RedeemChain(gsp.SubjectName(), &RedeemChainRequest{
		Chain: resp.Chain,
		Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 9, Word: w9},
	})
	if err != nil || red.Paid != currency.FromG(3) {
		t.Fatalf("post-restart advance = %+v, %v", red, err)
	}
}
