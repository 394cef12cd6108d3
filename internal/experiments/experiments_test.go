package experiments

import (
	"bytes"
	"strings"
	"testing"

	"gridbank/internal/broker"
	"gridbank/internal/currency"
	"gridbank/internal/rur"
)

// The experiment tests assert the *shape* each paper claim predicts, not
// absolute numbers: who wins, what stays bounded, what is refused.

func TestFig1EndToEnd(t *testing.T) {
	r, err := RunFig1(Fig1Config{Consumers: 3, JobsPerConsumer: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsCompleted != r.JobsPlanned || r.JobsCompleted != 15 {
		t.Fatalf("jobs: planned %d completed %d", r.JobsPlanned, r.JobsCompleted)
	}
	if !r.MoneyConserved {
		t.Fatal("money not conserved")
	}
	if !r.TotalCharged.IsPositive() {
		t.Fatal("nothing charged")
	}
	var earned currency.Amount
	for _, e := range r.ProviderEarned {
		earned = earned.MustAdd(e)
	}
	var spent currency.Amount
	for _, s := range r.ConsumerSpent {
		spent = spent.MustAdd(s)
	}
	if earned != spent || earned != r.TotalCharged {
		t.Fatalf("earned %s != spent %s != charged %s", earned, spent, r.TotalCharged)
	}
	var buf bytes.Buffer
	WriteFig1(&buf, r)
	if !strings.Contains(buf.String(), "money conserved: true") {
		t.Error("report rendering broken")
	}
}

func TestFig2Pipeline(t *testing.T) {
	r, err := RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if !r.StatementVerified || !r.EvidenceStored {
		t.Fatalf("verified=%v evidence=%v", r.StatementVerified, r.EvidenceStored)
	}
	// One CPU-hour at 2 G$/h dominates; total must be > 2 (plus memory
	// etc) and paid == total (cheque covered it).
	if r.Statement.Total.Cmp(currency.FromG(2)) < 0 {
		t.Fatalf("total = %s", r.Statement.Total)
	}
	if r.Paid != r.Statement.Total {
		t.Fatalf("paid %s != total %s", r.Paid, r.Statement.Total)
	}
	if len(r.Statement.Lines) != 6 {
		t.Fatalf("lines = %d", len(r.Statement.Lines))
	}
	var buf bytes.Buffer
	WriteFig2(&buf, r)
	if !strings.Contains(buf.String(), "cpu") {
		t.Error("report rendering broken")
	}
}

func TestFig3Protocols(t *testing.T) {
	r, err := RunFig3(Fig3Config{Payments: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 3 {
		t.Fatalf("lines = %d", len(r.Lines))
	}
	// All protocols move the same total.
	for _, l := range r.Lines {
		if l.TotalMoved != r.Lines[0].TotalMoved {
			t.Fatalf("moved mismatch: %+v", r.Lines)
		}
	}
	// The shape claim: per-payment bank RPCs rank hashchain < direct <
	// cheque.
	direct, cheque, chain := r.Lines[0], r.Lines[1], r.Lines[2]
	if !(chain.RPCsPerPay < direct.RPCsPerPay && direct.RPCsPerPay < cheque.RPCsPerPay) {
		t.Fatalf("RPC ranking wrong: %v %v %v", chain.RPCsPerPay, direct.RPCsPerPay, cheque.RPCsPerPay)
	}
	// And per-payment wall time: hash chains are the cheapest.
	if chain.PerPayment >= cheque.PerPayment {
		t.Fatalf("chain %v not cheaper than cheque %v per payment", chain.PerPayment, cheque.PerPayment)
	}
	var buf bytes.Buffer
	WriteFig3(&buf, r)
	if !strings.Contains(buf.String(), "GridHash") {
		t.Error("report rendering broken")
	}
}

func TestFig4Coop(t *testing.T) {
	r, err := RunFig4(Fig4Config{Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !r.MoneyConserved || !r.SlowCompensates {
		t.Fatalf("conserved=%v compensates=%v", r.MoneyConserved, r.SlowCompensates)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Consumed.IsZero() || row.Provided.IsZero() {
			t.Fatalf("%s did not both consume and provide: %+v", row.Participant, row)
		}
		// Balance identity: initial + provided − consumed == balance.
		want := currency.FromG(100).MustAdd(row.Provided).MustSub(row.Consumed)
		if row.Balance != want {
			t.Fatalf("%s balance %s, want %s", row.Participant, row.Balance, want)
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, r)
	if !strings.Contains(buf.String(), "GSP4 (slow)") {
		t.Error("report rendering broken")
	}
}

func TestScalability(t *testing.T) {
	r, err := RunScalability(ScalabilityConfig{ConsumerCounts: []int{10, 200}, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The claim: pool size constant, every consumer served, no
		// rejections when concurrency ≤ pool.
		if row.LocalAccountsPool != 8 {
			t.Fatalf("pool grew: %+v", row)
		}
		if row.JobsServed != row.Consumers || row.Rejections != 0 {
			t.Fatalf("service degraded: %+v", row)
		}
		if row.PeakInUse > 8 {
			t.Fatalf("peak exceeded pool: %+v", row)
		}
	}
	// Static baseline grows with the population; pool does not.
	if r.Rows[1].LocalAccountsStatic <= r.Rows[0].LocalAccountsStatic {
		t.Fatal("baseline shape wrong")
	}
	var buf bytes.Buffer
	WriteScalability(&buf, r)
	if !strings.Contains(buf.String(), "template account pool") {
		t.Error("report rendering broken")
	}
}

func TestGuarantee(t *testing.T) {
	r, err := RunGuarantee(GuaranteeConfig{Cheques: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Locked: exactly balance/limit cheques issued, zero unpaid, no
	// overdraft.
	if r.LockedIssued != 10 || r.LockedRefused != 20 {
		t.Fatalf("locked issue split = %d/%d", r.LockedIssued, r.LockedRefused)
	}
	if r.LockedUnpaid != 0 || r.LockedOverdraft {
		t.Fatalf("guarantee violated: %+v", r)
	}
	// Naive: everything issued, most unpaid.
	if r.NaiveIssued != 30 {
		t.Fatalf("naive issued = %d", r.NaiveIssued)
	}
	if r.NaiveUnpaid != 20 {
		t.Fatalf("naive unpaid = %d", r.NaiveUnpaid)
	}
	var buf bytes.Buffer
	WriteGuarantee(&buf, r)
	if !strings.Contains(buf.String(), "locked funds") {
		t.Error("report rendering broken")
	}
}

func TestPolicies(t *testing.T) {
	r, err := RunPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 3 {
		t.Fatalf("lines = %d", len(r.Lines))
	}
	// Pay-before: provider got exactly the fixed price.
	if r.Lines[0].ProviderGot != currency.FromG(1) {
		t.Fatalf("pay-before got %s", r.Lines[0].ProviderGot)
	}
	// Pay-as-you-go: 40 words × 0.05 = 2; 60 × 0.05 = 3 refunded.
	if r.Lines[1].ProviderGot != currency.FromG(2) || r.Lines[1].ConsumerRefunded != currency.FromG(3) {
		t.Fatalf("pay-as-you-go = %+v", r.Lines[1])
	}
	// Pay-after: metered 6.75 paid, 3.25 of the 10 reservation refunded.
	if r.Lines[2].ProviderGot != currency.MustParse("6.75") || r.Lines[2].ConsumerRefunded != currency.MustParse("3.25") {
		t.Fatalf("pay-after = %+v", r.Lines[2])
	}
	var buf bytes.Buffer
	WritePolicies(&buf, r)
	if !strings.Contains(buf.String(), "pay after use") {
		t.Error("report rendering broken")
	}
}

func TestEstimate(t *testing.T) {
	r, err := RunEstimate(EstimateConfig{HistorySize: 500, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	// With ±10% noise a usable estimator should land well under 25% mean
	// error.
	if r.MeanAbsErrPct > 25 {
		t.Fatalf("mean error %.1f%%", r.MeanAbsErrPct)
	}
	if len(r.Samples) == 0 {
		t.Fatal("no samples")
	}
	var buf bytes.Buffer
	WriteEstimate(&buf, r)
	if !strings.Contains(buf.String(), "mean absolute error") {
		t.Error("report rendering broken")
	}
}

func TestEquilibrium(t *testing.T) {
	r, err := RunEquilibrium(EquilibriumConfig{Participants: 8, Rounds: 150})
	if err != nil {
		t.Fatal(err)
	}
	if r.FinalRegulated >= r.FinalUnregulated {
		t.Fatalf("authority ineffective: regulated %.2f vs unregulated %.2f",
			r.FinalRegulated, r.FinalUnregulated)
	}
	var buf bytes.Buffer
	WriteEquilibrium(&buf, r)
	if !strings.Contains(buf.String(), "pricing authority") {
		t.Error("report rendering broken")
	}
}

func TestBranches(t *testing.T) {
	r, err := RunBranches(BranchesConfig{ChequesPerPair: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.CrossRedemptions != 24 { // 6 directed pairs × 4
		t.Fatalf("redemptions = %d", r.CrossRedemptions)
	}
	if len(r.Settlements) != 3 || !r.AllBooksBalance {
		t.Fatalf("settlements = %d, balance %v", len(r.Settlements), r.AllBooksBalance)
	}
	// With bidirectional flows, netting must have cancelled something.
	var nettedAny bool
	for _, s := range r.Settlements {
		if s.Netted.IsPositive() {
			nettedAny = true
		}
	}
	if !nettedAny {
		t.Fatal("no offsetting obligations were netted")
	}
	var buf bytes.Buffer
	WriteBranches(&buf, r)
	if !strings.Contains(buf.String(), "net payer") {
		t.Error("report rendering broken")
	}
}

func TestDBCSweep(t *testing.T) {
	r, err := RunDBC(DBCConfig{Jobs: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Index rows by (strategy, deadline index).
	byStrategy := map[broker.Strategy][]DBCRow{}
	for _, row := range r.Rows {
		byStrategy[row.Strategy] = append(byStrategy[row.Strategy], row)
	}
	costRows := byStrategy[broker.CostOptimal]
	// Cost-opt: with a loose deadline the fast share shrinks and cost
	// falls relative to the tightest feasible deadline.
	var feasible []DBCRow
	for _, row := range costRows {
		if row.Feasible {
			feasible = append(feasible, row)
		}
	}
	if len(feasible) < 2 {
		t.Fatalf("too few feasible cost-opt points: %+v", costRows)
	}
	tight, loose := feasible[0], feasible[len(feasible)-1]
	if tight.Cost.Cmp(loose.Cost) < 0 {
		t.Fatalf("tight deadline (%v, %s) not costlier than loose (%v, %s)",
			tight.Deadline, tight.Cost, loose.Deadline, loose.Cost)
	}
	if tight.FastShare < loose.FastShare {
		t.Fatalf("fast share did not grow under pressure: %.2f vs %.2f", tight.FastShare, loose.FastShare)
	}
	// Time-opt always beats or equals cost-opt on makespan where both
	// feasible.
	timeRows := byStrategy[broker.TimeOptimal]
	for i, row := range costRows {
		if row.Feasible && timeRows[i].Feasible && timeRows[i].Makespan > row.Makespan {
			t.Fatalf("time-opt slower than cost-opt at %v", row.Deadline)
		}
	}
	var buf bytes.Buffer
	WriteDBC(&buf, r)
	if !strings.Contains(buf.String(), "cost-time") {
		t.Error("report rendering broken")
	}
}

func TestPricingSupplyDemand(t *testing.T) {
	r, err := RunPricing(PricingConfig{Demand: []int{2, 12, 2}, PhaseLen: 20})
	if err != nil {
		t.Fatal(err)
	}
	// The §1 claim: high demand raises the price, low demand lowers it.
	if r.PeakPrice <= r.QuietPrice {
		t.Fatalf("rush price %d not above quiet price %d", r.PeakPrice, r.QuietPrice)
	}
	// The quiet price sits below the base rate (idle discount), the rush
	// price above it.
	base := StandardRates()[rur.ItemCPU].MicroPerUnit
	if r.QuietPrice >= base {
		t.Fatalf("quiet price %d not below base %d", r.QuietPrice, base)
	}
	if r.PeakPrice <= base {
		t.Fatalf("rush price %d not above base %d", r.PeakPrice, base)
	}
	var buf bytes.Buffer
	WritePricing(&buf, r)
	if !strings.Contains(buf.String(), "demand raises the price") {
		t.Error("report rendering broken")
	}
}
