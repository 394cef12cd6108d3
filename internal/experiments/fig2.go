package experiments

import (
	"fmt"
	"io"
	"time"

	"gridbank/internal/charging"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/gridsim"
	"gridbank/internal/rur"
)

// Fig2Report traces the GSP-internals pipeline of Figure 2 for one job:
// raw usage statistics → GRM filter/convert → standard RUR → GBCM cost
// calculation against the GTS rates → signed statement → redeemed
// payment.
type Fig2Report struct {
	Raw       gridsim.RawUsage
	RUR       *rur.Record
	Statement *rur.CostStatement
	Paid      currency.Amount
	// StatementVerified: the GSP-signed calculation re-derives (the
	// non-repudiation property of §2.1).
	StatementVerified bool
	// EvidenceStored: the RUR blob is retrievable from the TRANSFER
	// record ("provides evidence that a transaction took place").
	EvidenceStored bool
}

// RunFig2 executes the Figure 2 pipeline once.
func RunFig2() (*Fig2Report, error) {
	w, err := NewWorld()
	if err != nil {
		return nil, err
	}
	p, err := w.NewProvider("gsp1", StandardRates(), 4)
	if err != nil {
		return nil, err
	}
	consumer, acct, err := w.NewActor("alice", currency.FromG(100))
	if err != nil {
		return nil, err
	}

	// The GTS hands the agreed rates record to the GBCM (§2.1).
	agreement, err := p.GTS.Agree(consumer.SubjectName())
	if err != nil {
		return nil, err
	}

	// The consumer purchases a GridCheque; the GBCM admits the job onto
	// a template account.
	cheque, err := w.Bank.RequestCheque(consumer.SubjectName(), &core.RequestChequeRequest{
		AccountID: acct, Amount: currency.FromG(50), PayeeCert: p.Identity.SubjectName(),
	})
	if err != nil {
		return nil, err
	}
	const jobID = "fig2-job"
	if _, err := p.GBCM.AdmitCheque(jobID, &cheque.Cheque); err != nil {
		return nil, err
	}

	// Run the job on the simulated resource; its completion carries the
	// raw usage record the local OS accounting produced.
	sim := gridsim.New(w.Clock.Now())
	r, err := sim.AddResource(gridsim.ResourceConfig{
		Provider: p.Identity.SubjectName(), Host: "gsp1.grid", Nodes: 1, RatingMIPS: 800,
	})
	if err != nil {
		return nil, err
	}
	job := gridsim.Job{
		ID: jobID, Owner: consumer.SubjectName(), Application: "render",
		LengthMI: 2_880_000, // 3600 s at 800 MIPS: one CPU-hour
		MemoryMB: 512, StorageMB: 200, InputMB: 40, OutputMB: 60,
		SoftwareFraction: 0.1,
	}
	var result gridsim.JobResult
	if err := r.Submit(job, func(res gridsim.JobResult) { result = res }); err != nil {
		return nil, err
	}
	sim.Run()
	w.Clock.Set(result.End)

	report := &Fig2Report{Raw: result.Usage}

	// GRM: filter + convert (Figure 2's conversion unit).
	rec, err := p.Meter.Convert(result)
	if err != nil {
		return nil, err
	}
	report.RUR = rec

	// GBCM: total cost = Σ rate × usage, signed, redeemed with the bank.
	settle, err := p.GBCM.SettleCheque(jobID, rec, &agreement.Card)
	if err != nil {
		return nil, err
	}
	report.Statement = settle.Statement
	paid, err := currency.Parse(settle.Paid)
	if err != nil {
		return nil, err
	}
	report.Paid = paid

	// Non-repudiation: anyone holding the CA cert can verify and
	// re-derive the calculation.
	if _, _, err := charging.VerifyStatement(settle.SignedStatement, w.Trust, w.Clock.Now()); err == nil {
		report.StatementVerified = true
	}
	// Evidence: the RUR blob is on the TRANSFER record.
	tr, err := w.Bank.Ledger().GetTransfer(settle.TransactionID)
	if err == nil && len(tr.ResourceUsageRecord) > 0 {
		if back, err := rur.Decode(tr.ResourceUsageRecord); err == nil && back.Job.JobID == jobID {
			report.EvidenceStored = true
		}
	}
	return report, nil
}

// WriteFig2 renders the pipeline trace.
func WriteFig2(w io.Writer, r *Fig2Report) {
	fmt.Fprintln(w, "Figure 2 — GSP metering/charging pipeline (one CPU-hour job)")
	fmt.Fprintf(w, "\nraw OS usage (GRM input): user %ds sys %ds wall %ds rss %dMB scratch %dMB net %d+%dMB (+noise: %d faults, %d ctxsw)\n",
		r.Raw.UserCPUSec, r.Raw.SystemCPUSec, r.Raw.WallClockSec, r.Raw.MaxRSSMB, r.Raw.ScratchMB,
		r.Raw.NetworkInMB, r.Raw.NetworkOutMB, r.Raw.PageFaults, r.Raw.ContextSwitches)
	fmt.Fprintln(w, "\nstandard RUR + priced lines (GBCM output):")
	t := &Table{Header: []string{"item", "usage", "unit", "charge (G$)"}}
	for _, line := range r.Statement.Lines {
		t.Add(line.Item, line.Quantity, line.Item.UnitName(), line.Charge)
	}
	t.Write(w)
	fmt.Fprintf(w, "\ntotal %s G$; paid %s G$; statement verified: %v; RUR evidence stored: %v\n",
		r.Statement.Total, r.Paid, r.StatementVerified, r.EvidenceStored)
}

var _ = time.Second
