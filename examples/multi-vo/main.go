// Multi-VO settlement (§6): two virtual organizations each run their own
// GridBank branch; a consumer in VO-A pays a provider in VO-B by
// GridCheque, cleared through correspondent (vostro) accounts, with
// end-of-day netting between the branches.
//
//	go run ./examples/multi-vo
package main

import (
	"fmt"
	"log"
	"time"

	"gridbank/internal/branch"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One federation CA both VOs trust (in practice each VO's CA would
	// be cross-trusted; one CA keeps the example short).
	ca, err := pki.NewCA("Grid Federation CA", "Fed", 24*time.Hour)
	if err != nil {
		return err
	}
	trust := pki.NewTrustStore(ca.Certificate())

	newBranchBank := func(name, branchNum string) (*core.Bank, error) {
		id, err := ca.Issue(pki.IssueOptions{CommonName: name, Organization: "Fed"})
		if err != nil {
			return nil, err
		}
		return core.NewBank(db.MustOpenMemory(), core.BankConfig{
			Identity: id, Trust: trust, Branch: branchNum, Admins: []string{"CN=root"},
		})
	}
	bankA, err := newBranchBank("gridbank-vo-a", "0001")
	if err != nil {
		return err
	}
	bankB, err := newBranchBank("gridbank-vo-b", "0002")
	if err != nil {
		return err
	}

	// Join the branches: vostro accounts open automatically in both
	// directions.
	net := branch.NewNetwork()
	if _, err := net.AddBranch(bankA); err != nil {
		return err
	}
	if _, err := net.AddBranch(bankB); err != nil {
		return err
	}
	fmt.Println("branches 0001 (VO-A) and 0002 (VO-B) joined with mutual vostro accounts")

	// Alice banks at VO-A; the render farm banks at VO-B.
	alice, err := ca.Issue(pki.IssueOptions{CommonName: "alice", Organization: "VO-A"})
	if err != nil {
		return err
	}
	farm, err := ca.Issue(pki.IssueOptions{CommonName: "render-farm", Organization: "VO-B"})
	if err != nil {
		return err
	}
	aAcct, err := bankA.CreateAccount(alice.SubjectName(), &core.CreateAccountRequest{})
	if err != nil {
		return err
	}
	fAcct, err := bankB.CreateAccount(farm.SubjectName(), &core.CreateAccountRequest{})
	if err != nil {
		return err
	}
	if _, err := bankA.AdminDeposit("CN=root", &core.AdminAmountRequest{
		AccountID: aAcct.Account.AccountID, Amount: currency.FromG(200),
	}); err != nil {
		return err
	}
	fmt.Printf("alice: %s at branch 0001; render-farm: %s at branch 0002\n",
		aAcct.Account.AccountID, fAcct.Account.AccountID)

	// Alice's cheque is drawn on VO-A's bank but payable to a VO-B
	// identity — the account ID's branch number routes the settlement.
	cheque, err := bankA.RequestCheque(alice.SubjectName(), &core.RequestChequeRequest{
		AccountID: aAcct.Account.AccountID, Amount: currency.FromG(60), PayeeCert: farm.SubjectName(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("cheque for 60 G$ drawn on branch %s, payable to %s\n",
		cheque.Cheque.Cheque.DrawerAccountID.Branch(), cheque.Cheque.Cheque.PayeeCert)

	// The farm presents it at its *home* branch (0002); the network
	// forwards to 0001, which pays from alice's locked funds into 0002's
	// vostro; 0002 credits the farm.
	red, err := net.RedeemForeignCheque("0002", farm.SubjectName(), &cheque.Cheque,
		&payment.ChequeClaim{Serial: cheque.Cheque.Cheque.Serial, Amount: currency.FromG(45),
			RUR: []byte(`{"job":"render","cpu_hours":22.5}`)})
	if err != nil {
		return err
	}
	fmt.Printf("cross-branch redemption: paid %s G$ (issuing branch %s → payee branch %s), 15 G$ unlocked back to alice\n",
		red.Paid, red.IssuingBranch, red.PayeeBranch)

	f, _ := bankB.Ledger().Details(fAcct.Account.AccountID)
	a, _ := bankA.Ledger().Details(aAcct.Account.AccountID)
	fmt.Printf("balances: alice %s G$ at 0001, farm %s G$ at 0002\n",
		a.AvailableBalance, f.AvailableBalance)

	// End of day: the branches net their mutual obligations.
	st, err := net.SettlePair("0001", "0002")
	if err != nil {
		return err
	}
	fmt.Printf("settlement: gross 0001→0002 %s G$, 0002→0001 %s G$, netted %s G$, residual %s G$ paid by %s\n",
		st.GrossAtoB, st.GrossBtoA, st.Netted, st.NetAmount, st.NetPayer)
	return nil
}
