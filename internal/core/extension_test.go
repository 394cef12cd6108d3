package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// This file verifies the paper's modularity claim (§3.2): "Any other
// payment scheme that defines its own data structures and communication
// protocol can be added without need to modify GB Accounts or GB
// Security modules." promissoryScheme below is a complete novel payment
// scheme — bank-signed IOU notes redeemable once — built entirely on the
// server's RegisterOp extension point and the accounts layer's public
// operations. Neither internal/accounts nor internal/pki changes.

const promissoryContext = "ext/promissory/v1"

type promissoryNote struct {
	Serial string          `json:"serial"`
	Drawer accounts.ID     `json:"drawer"`
	Payee  string          `json:"payee"`
	Amount currency.Amount `json:"amount"`
}

type promissoryScheme struct {
	bank *Bank
	mu   sync.Mutex
	open map[string]promissoryNote // serial -> note (outstanding)
}

func (ps *promissoryScheme) issue(subject string, body []byte) (any, error) {
	var req struct {
		Account accounts.ID     `json:"account"`
		Payee   string          `json:"payee"`
		Amount  currency.Amount `json:"amount"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	acct, err := ps.bank.Ledger().Details(req.Account)
	if err != nil {
		return nil, err
	}
	if acct.CertificateName != subject {
		return nil, fmt.Errorf("%w: not the account owner", ErrDenied)
	}
	serial, err := payment.NewSerial()
	if err != nil {
		return nil, err
	}
	// Reuse the §3.4 guarantee: lock the face value.
	if err := ps.bank.Ledger().CheckFunds(req.Account, req.Amount); err != nil {
		return nil, err
	}
	note := promissoryNote{Serial: serial, Drawer: req.Account, Payee: req.Payee, Amount: req.Amount}
	signed, err := pki.Sign(ps.bank.Identity(), promissoryContext, note)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	ps.open[serial] = note
	ps.mu.Unlock()
	return map[string]any{"note": note, "envelope": signed}, nil
}

func (ps *promissoryScheme) redeem(subject string, body []byte) (any, error) {
	var req struct {
		Envelope *pki.Signed `json:"envelope"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	var note promissoryNote
	if _, err := req.Envelope.Verify(ps.bank.Trust(), promissoryContext, time.Now(), &note); err != nil {
		return nil, err
	}
	if note.Payee != subject {
		return nil, fmt.Errorf("%w: note payable to %s", ErrDenied, note.Payee)
	}
	payeeAcct, err := ps.bank.Ledger().FindByCertificate(subject, "")
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	_, outstanding := ps.open[note.Serial]
	if outstanding {
		delete(ps.open, note.Serial)
	}
	ps.mu.Unlock()
	if !outstanding {
		return nil, fmt.Errorf("%w: note %s", ErrAlreadyRedeemed, note.Serial)
	}
	tr, err := ps.bank.Ledger().Transfer(note.Drawer, payeeAcct.AccountID, note.Amount,
		accounts.TransferOptions{FromLocked: true})
	if err != nil {
		return nil, err
	}
	return map[string]any{"transaction_id": tr.TransactionID}, nil
}

func TestCustomPaymentSchemePluggability(t *testing.T) {
	lw := newLiveWorld(t)
	scheme := &promissoryScheme{bank: lw.bank, open: make(map[string]promissoryNote)}
	if err := lw.server.RegisterOp("Promissory.Issue", scheme.issue); err != nil {
		t.Fatal(err)
	}
	if err := lw.server.RegisterOp("Promissory.Redeem", scheme.redeem); err != nil {
		t.Fatal(err)
	}

	alice := lw.client(t, lw.alice)
	gsp := lw.client(t, lw.gsp)

	// Issue a 40 G$ note over the wire.
	var issued struct {
		Note     promissoryNote `json:"note"`
		Envelope *pki.Signed    `json:"envelope"`
	}
	err := alice.Call("Promissory.Issue", map[string]any{
		"account": lw.aliceAcct.AccountID,
		"payee":   lw.gsp.SubjectName(),
		"amount":  currency.FromG(40),
	}, &issued)
	if err != nil {
		t.Fatal(err)
	}
	// The lock landed on the ledger through the unmodified accounts layer.
	a, _ := lw.bank.Ledger().Details(lw.aliceAcct.AccountID)
	if a.LockedBalance != currency.FromG(40) {
		t.Fatalf("locked = %s", a.LockedBalance)
	}
	// Redeem as the payee.
	var redeemed struct {
		TransactionID uint64 `json:"transaction_id"`
	}
	if err := gsp.Call("Promissory.Redeem", map[string]any{"envelope": issued.Envelope}, &redeemed); err != nil {
		t.Fatal(err)
	}
	if redeemed.TransactionID == 0 {
		t.Fatal("no settlement transaction")
	}
	g, _ := lw.bank.Ledger().Details(lw.gspAcct.AccountID)
	if g.AvailableBalance != currency.FromG(40) {
		t.Fatalf("gsp balance = %s", g.AvailableBalance)
	}
	// Double redemption refused by the scheme's own registry.
	if err := gsp.Call("Promissory.Redeem", map[string]any{"envelope": issued.Envelope}, &redeemed); !IsRemoteCode(err, CodeConflict) {
		t.Fatalf("double redeem err = %v", err)
	}
	// A stranger cannot use the custom op either (connection gate).
	stranger, err := lw.ca.Issue(pki.IssueOptions{CommonName: "nobody", Organization: "VO-A"})
	if err != nil {
		t.Fatal(err)
	}
	sc := lw.client(t, stranger)
	if err := sc.Call("Promissory.Issue", map[string]any{}, nil); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("gated custom op err = %v", err)
	}
}

func TestRegisterOpValidation(t *testing.T) {
	lw := newLiveWorld(t)
	if err := lw.server.RegisterOp("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	if err := lw.server.RegisterOp(OpPing, func(string, []byte) (any, error) { return nil, nil }); err == nil {
		t.Error("built-in override accepted")
	}
	// Every dispatched op must be refused — a registration that dispatch
	// shadows would silently never run.
	for _, op := range []string{OpShardMap, OpReplicaStatus, OpUsageSubmit, OpUsageStatus, OpUsageDrain} {
		if err := lw.server.RegisterOp(op, func(string, []byte) (any, error) { return nil, nil }); err == nil {
			t.Errorf("built-in override of %s accepted", op)
		}
	}
	h := func(string, []byte) (any, error) { return "ok", nil }
	if err := lw.server.RegisterOp("X.Op", h); err != nil {
		t.Fatal(err)
	}
	if err := lw.server.RegisterOp("X.Op", h); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// TestCrossSchemeReplayRefused: a chain commitment signed by the bank
// cannot be replayed as a cheque — the signature context separates
// instrument domains.
func TestCrossSchemeReplayRefused(t *testing.T) {
	w := newTestWorld(t)
	chainResp, err := w.bank.RequestChain(w.alice.SubjectName(), &RequestChainRequest{
		AccountID: w.aliceAcct.AccountID, PayeeCert: w.gsp.SubjectName(), Length: 10, PerWord: currency.FromG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	forged := payment.SignedCheque{
		Cheque: payment.Cheque{
			Serial:          chainResp.Chain.Commitment.Serial,
			DrawerAccountID: w.aliceAcct.AccountID,
			DrawerCert:      w.alice.SubjectName(),
			PayeeCert:       w.gsp.SubjectName(),
			Limit:           currency.FromG(10),
			Currency:        currency.GridDollar,
			IssuedAt:        chainResp.Chain.Commitment.IssuedAt,
			Expires:         chainResp.Chain.Commitment.Expires,
		},
		Envelope: chainResp.Chain.Envelope, // the *chain's* signature
	}
	_, err = w.bank.RedeemCheque(w.gsp.SubjectName(), &RedeemChequeRequest{
		Cheque: forged,
		Claim:  payment.ChequeClaim{Serial: forged.Cheque.Serial, Amount: currency.FromG(1)},
	})
	if !errors.Is(err, pki.ErrBadSignature) {
		t.Fatalf("cross-scheme replay err = %v", err)
	}
}

// TestExpiredProxyCannotConnect: single sign-on credentials stop working
// when the proxy lapses, without touching the user's identity.
func TestExpiredProxyCannotConnect(t *testing.T) {
	lw := newLiveWorld(t)
	proxy, err := pki.NewProxy(lw.alice, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	c, err := Dial(lw.addr, proxy, lw.ts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(); err == nil {
		t.Fatal("expired proxy completed a request")
	}
	// The identity itself still works.
	c2 := lw.client(t, lw.alice)
	if _, err := c2.Ping(); err != nil {
		t.Fatalf("identity broken: %v", err)
	}
}
