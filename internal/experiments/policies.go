package experiments

import (
	"fmt"
	"io"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/payment"
)

// PolicyLine is one charging policy's demonstration.
type PolicyLine struct {
	Policy     string
	Instrument string
	// WhenPaid describes the settlement timing the policy exists for.
	WhenPaid string
	// Payments counts the distinct value transfers the consumer made.
	Payments int
	// ProviderGot is the total the provider ended up with.
	ProviderGot currency.Amount
	// ConsumerRefunded is what returned to the consumer (unused
	// reservation).
	ConsumerRefunded currency.Amount
}

// PoliciesReport demonstrates the three §3.1 charging policies end to
// end.
type PoliciesReport struct {
	Lines []PolicyLine
}

// RunPolicies exercises pay-before-use (fixed-price directory lookup),
// pay-as-you-go (per-result hash-chain streaming), and pay-after-use
// (unknown-cost batch job settled by cheque).
func RunPolicies() (*PoliciesReport, error) {
	w, err := NewWorld()
	if err != nil {
		return nil, err
	}
	alice, aliceAcct, err := w.NewActor("alice", currency.FromG(100))
	if err != nil {
		return nil, err
	}
	gsp, gspAcct, err := w.NewActor("gsp", 0)
	if err != nil {
		return nil, err
	}
	report := &PoliciesReport{}
	gspBalance := func() currency.Amount {
		a, _ := w.Bank.Ledger().Details(gspAcct)
		return a.AvailableBalance
	}

	// 1. Pay before use: a fixed-cost service (the paper's example: a
	// directory lookup). One direct transfer, then service delivery.
	before := gspBalance()
	if _, err := w.Bank.DirectTransfer(alice.SubjectName(), &core.DirectTransferRequest{
		FromAccountID: aliceAcct, ToAccountID: gspAcct, Amount: currency.FromG(1),
		RecipientAddress: "gsp.grid:9000",
	}); err != nil {
		return nil, err
	}
	report.Lines = append(report.Lines, PolicyLine{
		Policy: "pay before use", Instrument: "direct transfer", WhenPaid: "before service",
		Payments: 1, ProviderGot: gspBalance().MustSub(before),
	})

	// 2. Pay as you go: the consumer streams one hash word per computed
	// result; the provider redeems in two batches. 40 of 100 words are
	// spent; the rest returns to the consumer at expiry.
	before = gspBalance()
	chainResp, err := w.Bank.RequestChain(alice.SubjectName(), &core.RequestChainRequest{
		AccountID: aliceAcct, PayeeCert: gsp.SubjectName(), Length: 100,
		PerWord: currency.MustParse("0.05"), TTL: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	chain := &payment.Chain{Commitment: chainResp.Chain.Commitment, Seed: chainResp.Seed}
	payments := 0
	for _, batchEnd := range []int{25, 40} {
		word, err := chain.Word(batchEnd)
		if err != nil {
			return nil, err
		}
		if _, err := w.Bank.RedeemChain(gsp.SubjectName(), &core.RedeemChainRequest{
			Chain: chainResp.Chain,
			Claim: payment.ChainClaim{Serial: chain.Commitment.Serial, Index: batchEnd, Word: word},
		}); err != nil {
			return nil, err
		}
	}
	payments = 40 // words released (each word is one micro-payment)
	w.Clock.Advance(2 * time.Hour)
	rel, err := w.Bank.ReleaseChain(alice.SubjectName(), &core.ReleaseRequest{Serial: chain.Commitment.Serial})
	if err != nil {
		return nil, err
	}
	report.Lines = append(report.Lines, PolicyLine{
		Policy: "pay as you go", Instrument: "GridHash chain", WhenPaid: "per result delivered",
		Payments: payments, ProviderGot: gspBalance().MustSub(before), ConsumerRefunded: rel.Released,
	})

	// 3. Pay after use: total cost unknown beforehand; a cheque reserves
	// the budget, the metered cost (less than the reservation) is
	// claimed after execution, the rest unlocks.
	before = gspBalance()
	chequeResp, err := w.Bank.RequestCheque(alice.SubjectName(), &core.RequestChequeRequest{
		AccountID: aliceAcct, Amount: currency.FromG(10), PayeeCert: gsp.SubjectName(),
	})
	if err != nil {
		return nil, err
	}
	metered := currency.MustParse("6.75") // the GBCM's RUR-priced total
	red, err := w.Bank.RedeemCheque(gsp.SubjectName(), &core.RedeemChequeRequest{
		Cheque: chequeResp.Cheque,
		Claim: payment.ChequeClaim{
			Serial: chequeResp.Cheque.Cheque.Serial, Amount: metered,
			RUR: []byte(`{"job":"batch"}`),
		},
	})
	if err != nil {
		return nil, err
	}
	report.Lines = append(report.Lines, PolicyLine{
		Policy: "pay after use", Instrument: "GridCheque", WhenPaid: "after metering",
		Payments: 1, ProviderGot: gspBalance().MustSub(before), ConsumerRefunded: red.Released,
	})
	return report, nil
}

// WritePolicies renders the demonstration.
func WritePolicies(w io.Writer, r *PoliciesReport) {
	fmt.Fprintln(w, "§3.1 — the three charging policies")
	t := &Table{Header: []string{"policy", "instrument", "settles", "micro-payments", "provider got (G$)", "refunded (G$)"}}
	for _, l := range r.Lines {
		t.Add(l.Policy, l.Instrument, l.WhenPaid, l.Payments, l.ProviderGot, l.ConsumerRefunded)
	}
	t.Write(w)
}
