package experiments

import (
	"fmt"
	"io"
	"sync"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
)

// GuaranteeConfig parameterizes the §3.4 payment-guarantee experiment.
type GuaranteeConfig struct {
	// Cheques issued concurrently against one account (default 50).
	Cheques int
	// ChequeLimit per cheque (default 100 G$).
	ChequeLimit currency.Amount
	// Balance on the drawer account (default 1000 G$ — enough for 10
	// cheques, not 50).
	Balance currency.Amount
}

func (c *GuaranteeConfig) defaults() {
	if c.Cheques <= 0 {
		c.Cheques = 50
	}
	if c.ChequeLimit == 0 {
		c.ChequeLimit = currency.FromG(100)
	}
	if c.Balance == 0 {
		c.Balance = currency.FromG(1000)
	}
}

// GuaranteeReport compares GridBank's fund-locking guarantee against a
// naive no-locking baseline.
type GuaranteeReport struct {
	Cheques     int
	ChequeLimit currency.Amount
	Balance     currency.Amount

	// With locking (§3.4): issuance is refused once the balance is fully
	// reserved, and every issued cheque redeems in full.
	LockedIssued    int
	LockedRefused   int
	LockedUnpaid    int // redemption failures — must be 0
	LockedOverdraft bool

	// Without locking (baseline: availability check at issue, no
	// reservation): everything is issued, and providers discover at
	// redemption that the money is gone.
	NaiveIssued int
	NaiveUnpaid int // cheques that could not be (fully) honoured
}

// RunGuarantee reproduces §3.4: "when a credit card approach is taken ...
// clients can easily spend more than they have in the account. To
// guarantee payment when issuing GridCheques, GridBank will have to lock
// a certain amount of funds for the cheque to be valid."
func RunGuarantee(cfg GuaranteeConfig) (*GuaranteeReport, error) {
	cfg.defaults()
	report := &GuaranteeReport{Cheques: cfg.Cheques, ChequeLimit: cfg.ChequeLimit, Balance: cfg.Balance}

	// --- GridBank with the locking guarantee -----------------------------
	w, err := NewWorld()
	if err != nil {
		return nil, err
	}
	alice, acct, err := w.NewActor("alice", cfg.Balance)
	if err != nil {
		return nil, err
	}
	gsp, _, err := w.NewActor("gsp", 0)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var issued []*payment.SignedCheque
	var wg sync.WaitGroup
	for i := 0; i < cfg.Cheques; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := w.Bank.RequestCheque(alice.SubjectName(), &core.RequestChequeRequest{
				AccountID: acct, Amount: cfg.ChequeLimit, PayeeCert: gsp.SubjectName(),
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				report.LockedRefused++
				return
			}
			issued = append(issued, &resp.Cheque)
		}()
	}
	wg.Wait()
	report.LockedIssued = len(issued)
	// Every issued cheque is fully redeemable.
	for _, sc := range issued {
		if _, err := w.Bank.RedeemCheque(gsp.SubjectName(), &core.RedeemChequeRequest{
			Cheque: *sc,
			Claim:  payment.ChequeClaim{Serial: sc.Cheque.Serial, Amount: cfg.ChequeLimit},
		}); err != nil {
			report.LockedUnpaid++
		}
	}
	finalAcct, err := w.Bank.Ledger().Details(acct)
	if err != nil {
		return nil, err
	}
	report.LockedOverdraft = finalAcct.AvailableBalance.IsNegative()

	// --- Naive baseline: availability check, no reservation ---------------
	// Modeled directly on the ledger: issuance succeeds while the
	// *unreserved* balance covers the limit (but nothing is reserved, so
	// every check passes while the balance is untouched); redemption is a
	// plain transfer that fails once the money is gone.
	mgr, err := accounts.NewManager(db.MustOpenMemory(), accounts.Config{})
	if err != nil {
		return nil, err
	}
	na, err := mgr.CreateAccount("CN=alice", "", "")
	if err != nil {
		return nil, err
	}
	ng, err := mgr.CreateAccount("CN=gsp", "", "")
	if err != nil {
		return nil, err
	}
	if err := mgr.Admin().Deposit(na.AccountID, cfg.Balance); err != nil {
		return nil, err
	}
	naiveIssued := 0
	for i := 0; i < cfg.Cheques; i++ {
		acctState, err := mgr.Details(na.AccountID)
		if err != nil {
			return nil, err
		}
		// The naive bank checks the balance covers *this* cheque, blind
		// to the other outstanding ones.
		if acctState.AvailableBalance.Cmp(cfg.ChequeLimit) >= 0 {
			naiveIssued++
		}
	}
	report.NaiveIssued = naiveIssued
	for i := 0; i < naiveIssued; i++ {
		if _, err := mgr.Transfer(na.AccountID, ng.AccountID, cfg.ChequeLimit, accounts.TransferOptions{}); err != nil {
			report.NaiveUnpaid++
		}
	}
	return report, nil
}

// WriteGuarantee renders the comparison.
func WriteGuarantee(w io.Writer, r *GuaranteeReport) {
	fmt.Fprintf(w, "§3.4 — payment guarantee: %d concurrent cheques of %s G$ against a %s G$ balance\n",
		r.Cheques, r.ChequeLimit, r.Balance)
	t := &Table{Header: []string{"scheme", "issued", "refused at issue", "unpaid at redemption", "overdraft"}}
	t.Add("locked funds (GridBank §3.4)", r.LockedIssued, r.LockedRefused, r.LockedUnpaid, r.LockedOverdraft)
	t.Add("naive (no reservation)", r.NaiveIssued, 0, r.NaiveUnpaid, false)
	t.Write(w)
	fmt.Fprintln(w, "\nshape: locking converts provider-side redemption failures into up-front issuance refusals.")
}
