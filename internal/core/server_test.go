package core

import (
	"net"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// liveWorld spins up a real Server on a loopback listener.
type liveWorld struct {
	*testWorld
	server *Server
	addr   string
}

func newLiveWorld(t *testing.T) *liveWorld {
	t.Helper()
	return newLiveWorldWith(t, newTestWorld(t), nil)
}

// newLiveWorldWith starts a live server over w, letting the test tune
// limits (MaxInFlight, MaxConns, IdleTimeout, …) before serving.
func newLiveWorldWith(t *testing.T, w *testWorld, configure func(*Server)) *liveWorld {
	t.Helper()
	serverID, err := w.ca.Issue(pki.IssueOptions{CommonName: "gridbank-server", Organization: "VO-A", IsServer: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(w.bank, serverID)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	if configure != nil {
		configure(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &liveWorld{testWorld: w, server: srv, addr: ln.Addr().String()}
}

func (lw *liveWorld) client(t *testing.T, id *pki.Identity) *Client {
	t.Helper()
	c, err := Dial(lw.addr, id, lw.ts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndOverTLS(t *testing.T) {
	lw := newLiveWorld(t)
	alice := lw.client(t, lw.alice)
	gsp := lw.client(t, lw.gsp)
	admin := lw.client(t, lw.admin)

	bankName, err := alice.Ping()
	if err != nil || bankName != lw.bankID.SubjectName() {
		t.Fatalf("Ping = %q, %v", bankName, err)
	}

	// Alice checks her balance over the wire.
	acct, err := alice.AccountDetails(lw.aliceAcct.AccountID)
	if err != nil || acct.AvailableBalance != currency.FromG(1000) {
		t.Fatalf("details = %+v, %v", acct, err)
	}

	// Full cheque round trip: request → GSP verify → redeem.
	cheque, err := alice.RequestCheque(lw.aliceAcct.AccountID, currency.FromG(200), lw.gsp.SubjectName(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := payment.VerifyCheque(cheque, lw.ts, lw.gsp.SubjectName(), time.Now()); err != nil {
		t.Fatalf("GSP-side cheque verify: %v", err)
	}
	red, err := gsp.RedeemCheque(cheque, &payment.ChequeClaim{
		Serial: cheque.Cheque.Serial, Amount: currency.FromG(150), RUR: []byte(`{"job":"wire"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if red.Paid != currency.FromG(150) || red.Released != currency.FromG(50) {
		t.Fatalf("redeem = %+v", red)
	}

	// Hash chain round trip over the wire.
	chain, signed, err := alice.RequestChain(lw.aliceAcct.AccountID, lw.gsp.SubjectName(), 50, currency.MustParse("0.1"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w10, err := chain.Word(10)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := gsp.RedeemChain(signed, &payment.ChainClaim{Serial: chain.Commitment.Serial, Index: 10, Word: w10})
	if err != nil {
		t.Fatal(err)
	}
	if cred.Paid != currency.FromG(1) {
		t.Fatalf("chain paid = %s", cred.Paid)
	}

	// Direct transfer with receipt.
	dt, err := alice.DirectTransfer(lw.aliceAcct.AccountID, lw.gspAcct.AccountID, currency.FromG(5), "")
	if err != nil {
		t.Fatal(err)
	}
	var rcpt TransferReceipt
	if _, err := dt.Receipt.Verify(lw.ts, ReceiptContext, time.Now(), &rcpt); err != nil {
		t.Fatalf("receipt verify: %v", err)
	}

	// Statement reflects everything.
	st, err := alice.AccountStatement(lw.aliceAcct.AccountID, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Transactions) == 0 || len(st.Transfers) == 0 {
		t.Fatalf("statement empty: %+v", st)
	}

	// Admin ops over the wire.
	if err := admin.AdminDeposit(lw.gspAcct.AccountID, currency.FromG(3)); err != nil {
		t.Fatal(err)
	}
	accts, err := admin.AdminListAccounts()
	if err != nil || len(accts) != 2 {
		t.Fatalf("admin list = %d, %v", len(accts), err)
	}
	// Alice cannot call admin ops: remote denied code.
	if err := alice.AdminDeposit(lw.aliceAcct.AccountID, currency.FromG(1)); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("non-admin remote deposit err = %v", err)
	}
}

func TestUnknownSubjectGate(t *testing.T) {
	lw := newLiveWorld(t)
	stranger, err := lw.ca.Issue(pki.IssueOptions{CommonName: "stranger", Organization: "VO-A"})
	if err != nil {
		t.Fatal(err)
	}
	c := lw.client(t, stranger)
	// Any op other than CreateAccount is refused and the connection is
	// dropped (§3.2 DoS gate).
	if _, err := c.AccountDetails(lw.aliceAcct.AccountID); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("stranger op err = %v", err)
	}
	// A fresh connection can open an account, then operate.
	c2 := lw.client(t, stranger)
	acct, err := c2.CreateAccount("VO-A", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AccountDetails(acct.AccountID); err != nil {
		t.Fatalf("post-create op err = %v", err)
	}
}

func TestUntrustedClientCannotConnect(t *testing.T) {
	lw := newLiveWorld(t)
	evilCA, err := pki.NewCA("Evil CA", "X", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := evilCA.Issue(pki.IssueOptions{CommonName: "mallory"})
	if err != nil {
		t.Fatal(err)
	}
	// Mallory trusts the real CA (to complete her side) but the server
	// must refuse her chain.
	c, err := Dial(lw.addr, mallory, lw.ts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Ping(); err == nil {
		t.Fatal("untrusted client completed a request")
	}
}

func TestProxyAuthenticationOverWire(t *testing.T) {
	lw := newLiveWorld(t)
	proxy, err := pki.NewProxy(lw.alice, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c := lw.client(t, proxy)
	// The proxy operates alice's account — single sign-on in action.
	acct, err := c.AccountDetails(lw.aliceAcct.AccountID)
	if err != nil {
		t.Fatalf("proxy op failed: %v", err)
	}
	if acct.CertificateName != lw.alice.SubjectName() {
		t.Errorf("account owner = %q", acct.CertificateName)
	}
}

func TestClientReconnectsAfterServerDrop(t *testing.T) {
	lw := newLiveWorld(t)
	c := lw.client(t, lw.alice)
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Force-drop all server conns; the client should redial transparently
	// on the next call (after one failed call).
	lw.server.mu.Lock()
	for conn := range lw.server.conns {
		conn.Close()
	}
	lw.server.mu.Unlock()
	// First call may fail (broken pipe), second must succeed.
	if _, err := c.Ping(); err != nil {
		if _, err2 := c.Ping(); err2 != nil {
			t.Fatalf("reconnect failed: %v / %v", err, err2)
		}
	}
}

func TestServerCloseIdempotentAndServeAfterClose(t *testing.T) {
	w := newTestWorld(t)
	serverID, err := w.ca.Issue(pki.IssueOptions{CommonName: "srv", Organization: "VO-A", IsServer: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(w.bank, serverID)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
	if srv.Addr() != nil {
		t.Error("Addr after close should be nil")
	}
}

func TestMoneyConservedOverWireWorkload(t *testing.T) {
	lw := newLiveWorld(t)
	alice := lw.client(t, lw.alice)
	gsp := lw.client(t, lw.gsp)
	before, err := lw.bank.Ledger().TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		cheque, err := alice.RequestCheque(lw.aliceAcct.AccountID, currency.FromG(10), lw.gsp.SubjectName(), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gsp.RedeemCheque(cheque, &payment.ChequeClaim{
			Serial: cheque.Cheque.Serial, Amount: currency.FromG(7),
		}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := lw.bank.Ledger().TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("money not conserved over wire: %s -> %s", before, after)
	}
}

func TestBankPersistenceAcrossRestart(t *testing.T) {
	// A bank restarted on the same journal retains accounts, cheque
	// registries and admin table.
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
	cheque, err := bank1.RequestCheque(alice.SubjectName(), &RequestChequeRequest{
		AccountID: aAcct.Account.AccountID, Amount: currency.FromG(40), PayeeCert: gsp.SubjectName(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": new store from the same journal.
	store2, err := db.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	bank2, err := NewBank(store2, BankConfig{Identity: bankID, Trust: ts})
	if err != nil {
		t.Fatal(err)
	}
	if !bank2.IsAdmin("CN=root") {
		t.Error("admin table lost on restart")
	}
	// The outstanding cheque can be redeemed against the restarted bank.
	red, err := bank2.RedeemCheque(gsp.SubjectName(), &RedeemChequeRequest{
		Cheque: cheque.Cheque,
		Claim:  payment.ChequeClaim{Serial: cheque.Cheque.Cheque.Serial, Amount: currency.FromG(40)},
	})
	if err != nil || red.Paid != currency.FromG(40) {
		t.Fatalf("post-restart redeem = %+v, %v", red, err)
	}
}
