package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/pki"
)

// cliWorld mirrors what gridbankd sets up: a CA + bank + TLS server plus
// on-disk credentials the CLI loads.
type cliWorld struct {
	dir  string
	addr string
	bank *core.Bank
}

func newCLIWorld(t *testing.T) *cliWorld {
	t.Helper()
	dir := t.TempDir()
	ca, err := pki.NewCA("VO-CLI CA", "VO-CLI", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.SaveCACert(filepath.Join(dir, "ca.pem"), ca.Certificate()); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, server bool) *pki.Identity {
		id, err := ca.Issue(pki.IssueOptions{CommonName: name, Organization: "VO-CLI", IsServer: server})
		if err != nil {
			t.Fatal(err)
		}
		if err := pki.SaveIdentity(dir, name, id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	bankID := mk("bank", true)
	banker := mk("banker", false)
	mk("alice", false)
	trust := pki.NewTrustStore(ca.Certificate())
	bank, err := core.NewBank(db.MustOpenMemory(), core.BankConfig{
		Identity: bankID, Trust: trust, Admins: []string{banker.SubjectName()},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(bank, bankID)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &cliWorld{dir: dir, addr: ln.Addr().String(), bank: bank}
}

func (w *cliWorld) cli(t *testing.T, who string, args ...string) error {
	t.Helper()
	return run(w.addr, filepath.Join(w.dir, "ca.pem"),
		filepath.Join(w.dir, who+".crt"), filepath.Join(w.dir, who+".key"), args)
}

func TestCLIAccountLifecycle(t *testing.T) {
	w := newCLIWorld(t)
	// Silence the CLI's stdout JSON during the test.
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := w.cli(t, "alice", "ping"); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := w.cli(t, "alice", "create-account", "VO-CLI", "G$"); err != nil {
		t.Fatalf("create-account: %v", err)
	}
	acct, err := w.bank.Ledger().FindByCertificate("CN=alice,O=VO-CLI", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.bank.AdminDeposit("CN=banker,O=VO-CLI", &core.AdminAmountRequest{
		AccountID: acct.AccountID, Amount: currency.FromG(50),
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.cli(t, "alice", "details", string(acct.AccountID)); err != nil {
		t.Fatalf("details: %v", err)
	}
	if err := w.cli(t, "alice", "check-funds", string(acct.AccountID), "10"); err != nil {
		t.Fatalf("check-funds: %v", err)
	}
	got, err := w.bank.Ledger().Details(acct.AccountID)
	if err != nil || got.LockedBalance != currency.FromG(10) {
		t.Fatalf("lock not applied: %+v, %v", got, err)
	}
	if err := w.cli(t, "alice", "statement", string(acct.AccountID), "1"); err != nil {
		t.Fatalf("statement: %v", err)
	}
	// Errors surface as errors, not panics.
	if err := w.cli(t, "alice", "details", "99-9999-99999999"); err == nil {
		t.Fatal("missing account did not error")
	}
	if err := w.cli(t, "alice", "bogus-op"); err == nil {
		t.Fatal("unknown op did not error")
	}
}

func TestCLIProxyGeneration(t *testing.T) {
	w := newCLIWorld(t)
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := w.cli(t, "alice", "proxy", "2"); err != nil {
		t.Fatalf("proxy: %v", err)
	}
	proxy, err := pki.LoadIdentity(w.dir, "proxy")
	if err != nil {
		t.Fatal(err)
	}
	if pki.BaseSubjectName(proxy.Cert) != "CN=alice,O=VO-CLI" {
		t.Fatalf("proxy base = %q", pki.BaseSubjectName(proxy.Cert))
	}
	if len(proxy.Chain) != 1 {
		t.Fatalf("proxy chain length = %d", len(proxy.Chain))
	}
}

func TestCLIIdentityErrors(t *testing.T) {
	w := newCLIWorld(t)
	if err := run(w.addr, filepath.Join(w.dir, "ca.pem"), "", "", []string{"ping"}); err == nil {
		t.Fatal("missing cert flags accepted")
	}
	if err := run(w.addr, filepath.Join(w.dir, "ca.pem"),
		filepath.Join(w.dir, "ghost.crt"), filepath.Join(w.dir, "ghost.key"), []string{"ping"}); err == nil {
		t.Fatal("missing identity files accepted")
	}
	if err := run(w.addr, filepath.Join(w.dir, "missing-ca.pem"),
		filepath.Join(w.dir, "alice.crt"), filepath.Join(w.dir, "alice.key"), []string{"ping"}); err == nil {
		t.Fatal("missing CA accepted")
	}
}
