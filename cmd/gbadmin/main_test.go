package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/usage"
)

func accountsID(s string) accounts.ID { return accounts.ID(s) }

type adminWorld struct {
	dir  string
	addr string
	bank *core.Bank
	srv  *core.Server
	acct string
}

func newAdminWorld(t *testing.T) *adminWorld {
	t.Helper()
	dir := t.TempDir()
	ca, err := pki.NewCA("VO-ADM CA", "VO-ADM", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.SaveCACert(filepath.Join(dir, "ca.pem"), ca.Certificate()); err != nil {
		t.Fatal(err)
	}
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "bank", Organization: "VO-ADM", IsServer: true})
	if err != nil {
		t.Fatal(err)
	}
	banker, err := ca.Issue(pki.IssueOptions{CommonName: "banker", Organization: "VO-ADM"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.SaveIdentity(dir, "banker", banker); err != nil {
		t.Fatal(err)
	}
	alice, err := ca.Issue(pki.IssueOptions{CommonName: "alice", Organization: "VO-ADM"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pki.SaveIdentity(dir, "alice", alice); err != nil {
		t.Fatal(err)
	}
	trust := pki.NewTrustStore(ca.Certificate())
	bank, err := core.NewBank(db.MustOpenMemory(), core.BankConfig{
		Identity: bankID, Trust: trust, Admins: []string{banker.SubjectName()},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := bank.CreateAccount(alice.SubjectName(), &core.CreateAccountRequest{})
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
	return &adminWorld{dir: dir, addr: ln.Addr().String(), bank: bank, srv: srv, acct: string(resp.Account.AccountID)}
}

func (w *adminWorld) admin(t *testing.T, who string, args ...string) error {
	t.Helper()
	return run(w.addr, filepath.Join(w.dir, "ca.pem"),
		filepath.Join(w.dir, who+".crt"), filepath.Join(w.dir, who+".key"), args)
}

func TestAdminCLIFlows(t *testing.T) {
	w := newAdminWorld(t)
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := w.admin(t, "banker", "deposit", w.acct, "120"); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	if err := w.admin(t, "banker", "withdraw", w.acct, "20"); err != nil {
		t.Fatalf("withdraw: %v", err)
	}
	if err := w.admin(t, "banker", "credit-limit", w.acct, "10"); err != nil {
		t.Fatalf("credit-limit: %v", err)
	}
	if err := w.admin(t, "banker", "accounts"); err != nil {
		t.Fatalf("accounts: %v", err)
	}
	acct, err := w.bank.Ledger().Details(accountsID(w.acct))
	if err != nil {
		t.Fatal(err)
	}
	if acct.AvailableBalance != currency.FromG(100) || acct.CreditLimit != currency.FromG(10) {
		t.Fatalf("state = %+v", acct)
	}
	// Non-admin identities are refused by the server.
	if err := w.admin(t, "alice", "deposit", w.acct, "1"); err == nil {
		t.Fatal("non-admin deposit succeeded")
	}
	// Bad usage errors cleanly.
	if err := w.admin(t, "banker", "deposit", w.acct, "not-a-number"); err == nil {
		t.Fatal("bad amount accepted")
	}
	if err := w.admin(t, "banker", "cancel", "not-a-number"); err == nil {
		t.Fatal("bad tx id accepted")
	}
	if err := w.admin(t, "banker", "nonsense"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestMetricsCLIFlow(t *testing.T) {
	w := newAdminWorld(t)
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	// A registry-less server answers with Enabled=false, not an error.
	if err := w.admin(t, "banker", "metrics"); err != nil {
		t.Fatalf("metrics without registry: %v", err)
	}
	reg := obs.NewRegistry()
	w.bank.SetObs(reg)
	w.srv.Obs = reg
	if err := w.admin(t, "banker", "metrics"); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	// Metrics.Snapshot is an admin operation.
	if err := w.admin(t, "alice", "metrics"); err == nil {
		t.Fatal("non-admin metrics succeeded")
	}
}

func TestUsageCLIFlows(t *testing.T) {
	w := newAdminWorld(t)
	old := os.Stdout
	null, _ := os.Open(os.DevNull)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	// Without a pipeline the server answers "unavailable".
	if err := w.admin(t, "banker", "usage-status"); err == nil {
		t.Fatal("usage-status succeeded without a pipeline")
	}
	pipe, err := usage.New(usage.Config{
		Ledger: w.bank.Ledger(),
		Spool:  db.MustOpenMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	w.bank.SetUsage(pipe)
	if err := w.admin(t, "banker", "usage-status"); err != nil {
		t.Fatalf("usage-status: %v", err)
	}
	if err := w.admin(t, "banker", "usage-drain", "5"); err != nil {
		t.Fatalf("usage-drain: %v", err)
	}
	if err := w.admin(t, "banker", "usage-drain", "not-a-number"); err == nil {
		t.Fatal("bad drain timeout accepted")
	}
	// Draining is an admin operation.
	if err := w.admin(t, "alice", "usage-drain"); err == nil {
		t.Fatal("non-admin drain succeeded")
	}
}
