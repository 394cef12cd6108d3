package gridbank_test

// One benchmark per paper experiment of cmd/experiments, plus
// micro-benchmarks of the hot paths (ledger transfer, cheque issue/redeem,
// hash-chain verification, RUR pricing). Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks measure a whole scenario per iteration, so
// their ns/op is "time to reproduce the figure", not a micro-latency.

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gridbank"
	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/experiments"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// --- Experiment benchmarks (E1..E11) -----------------------------------------

func BenchmarkFig1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig1(experiments.Fig1Config{Consumers: 2, JobsPerConsumer: 4, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if r.JobsCompleted == 0 {
			b.Fatal("no jobs completed")
		}
	}
}

func BenchmarkFig2MeterPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Protocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(experiments.Fig3Config{Payments: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Coop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(experiments.Fig4Config{Rounds: 50, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTemplatePool(b *testing.B) {
	// E5: admission+settlement cycle over a template pool, per consumer.
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScalability(experiments.ScalabilityConfig{
			ConsumerCounts: []int{50}, PoolSize: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuarantee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGuarantee(experiments.GuaranteeConfig{Cheques: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaymentSchemes(b *testing.B) {
	// E7: the three charging policies end to end.
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPolicies(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPriceEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEstimate(experiments.EstimateConfig{HistorySize: 500, Queries: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEquilibrium(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEquilibrium(experiments.EquilibriumConfig{Participants: 8, Rounds: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchSettlement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBranches(experiments.BranchesConfig{ChequesPerPair: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommodityPricing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPricing(experiments.PricingConfig{PhaseLen: 10, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokerDBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDBC(experiments.DBCConfig{Jobs: 60, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent hot-path benchmarks -------------------------------------------

// benchParallelism oversubscribes RunParallel workers so journal group
// commit has real fan-in: GridBank's load is many concurrent consumers,
// not one per core.
const benchParallelism = 8

// parallelBankWorld builds an in-process bank over a fsync-per-commit
// file journal — the durable GridBank server configuration — with n
// disjoint (drawer, payee) actor pairs for RunParallel benchmarks.
func parallelBankWorld(b *testing.B, n int) (*core.Bank, []parallelPair) {
	b.Helper()
	ca, err := pki.NewCA("Bench CA", "VO-Bench", 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "gridbank", Organization: "VO-Bench", IsServer: true})
	if err != nil {
		b.Fatal(err)
	}
	j, err := db.OpenFileJournal(filepath.Join(b.TempDir(), "wal"), true)
	if err != nil {
		b.Fatal(err)
	}
	store, err := db.Open(j)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	const admin = "CN=bench-admin"
	bank, err := core.NewBank(store, core.BankConfig{
		Identity: bankID, Trust: pki.NewTrustStore(ca.Certificate()), Admins: []string{admin},
	})
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]parallelPair, n)
	for i := range pairs {
		drawerID, err := ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("drawer%d", i), Organization: "VO-Bench"})
		if err != nil {
			b.Fatal(err)
		}
		payeeID, err := ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("payee%d", i), Organization: "VO-Bench"})
		if err != nil {
			b.Fatal(err)
		}
		dResp, err := bank.CreateAccount(drawerID.SubjectName(), &core.CreateAccountRequest{})
		if err != nil {
			b.Fatal(err)
		}
		pResp, err := bank.CreateAccount(payeeID.SubjectName(), &core.CreateAccountRequest{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bank.AdminDeposit(admin, &core.AdminAmountRequest{
			AccountID: dResp.Account.AccountID, Amount: gridbank.G(1_000_000),
		}); err != nil {
			b.Fatal(err)
		}
		pairs[i] = parallelPair{
			drawer:     drawerID.SubjectName(),
			payee:      payeeID.SubjectName(),
			drawerAcct: dResp.Account.AccountID,
			payeeAcct:  pResp.Account.AccountID,
		}
	}
	return bank, pairs
}

type parallelPair struct {
	drawer, payee         string
	drawerAcct, payeeAcct gridbank.AccountID
}

// BenchmarkParallelDirectTransfer drives concurrent DirectTransfer calls
// between disjoint account pairs through the bank core, each commit
// durable (fsync) before it is acknowledged.
func BenchmarkParallelDirectTransfer(b *testing.B) {
	bank, pairs := parallelBankWorld(b, 32)
	var next atomic.Uint64
	b.SetParallelism(benchParallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := pairs[int(next.Add(1)-1)%len(pairs)]
		for pb.Next() {
			_, err := bank.DirectTransfer(p.drawer, &core.DirectTransferRequest{
				FromAccountID: p.drawerAcct, ToAccountID: p.payeeAcct, Amount: gridbank.Micro(1),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelChequeIssueRedeem measures the full cheque
// issue+redeem cycle with concurrent disjoint drawer/payee pairs — the
// §3.4 guarantee path under load, durable per commit.
func BenchmarkParallelChequeIssueRedeem(b *testing.B) {
	bank, pairs := parallelBankWorld(b, 32)
	var next atomic.Uint64
	b.SetParallelism(benchParallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := pairs[int(next.Add(1)-1)%len(pairs)]
		for pb.Next() {
			cheque, err := bank.RequestCheque(p.drawer, &core.RequestChequeRequest{
				AccountID: p.drawerAcct, Amount: gridbank.Micro(1000), PayeeCert: p.payee, TTL: time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			_, err = bank.RedeemCheque(p.payee, &core.RedeemChequeRequest{
				Cheque: cheque.Cheque,
				Claim:  payment.ChequeClaim{Serial: cheque.Cheque.Cheque.Serial, Amount: gridbank.Micro(1000)},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Micro-benchmarks of hot paths -------------------------------------------

// benchWorld pre-builds an in-process deployment for micro-benchmarks.
type benchWorld struct {
	dep    *gridbank.Deployment
	client *gridbank.Client
	gspCli *gridbank.Client
	banker *gridbank.Client
	acctA  gridbank.AccountID
	acctB  gridbank.AccountID
	gspSub string
}

func newBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	dep, err := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-Bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dep.Close() })
	alice, err := dep.NewUser("alice")
	if err != nil {
		b.Fatal(err)
	}
	gsp, err := dep.NewUser("gsp")
	if err != nil {
		b.Fatal(err)
	}
	client, err := dep.Dial(alice)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	gspCli, err := dep.Dial(gsp)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gspCli.Close() })
	banker, err := dep.Dial(dep.Banker)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { banker.Close() })
	a, err := client.CreateAccount("", "")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gspCli.CreateAccount("", "")
	if err != nil {
		b.Fatal(err)
	}
	if err := banker.AdminDeposit(a.AccountID, gridbank.G(1_000_000_000)); err != nil {
		b.Fatal(err)
	}
	return &benchWorld{
		dep: dep, client: client, gspCli: gspCli, banker: banker,
		acctA: a.AccountID, acctB: g.AccountID, gspSub: gsp.SubjectName(),
	}
}

func BenchmarkWireDirectTransfer(b *testing.B) {
	w := newBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.client.DirectTransfer(w.acctA, w.acctB, gridbank.Micro(1000), ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireChequeIssueRedeem(b *testing.B) {
	w := newBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cheque, err := w.client.RequestCheque(w.acctA, gridbank.Micro(1000), w.gspSub, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.gspCli.RedeemCheque(cheque, &gridbank.ChequeClaim{
			Serial: cheque.Cheque.Serial, Amount: gridbank.Micro(1000),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireBalanceQuery(b *testing.B) {
	w := newBenchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.client.AccountDetails(w.acctA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLedgerTransferInProcess(b *testing.B) {
	w := newBenchWorld(b)
	led := w.dep.Bank.Ledger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := led.Transfer(w.acctA, w.acctB, gridbank.Micro(1), gridbank.TransferOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashChainVerifyWord(b *testing.B) {
	w := newBenchWorld(b)
	chain, _, err := w.client.RequestChain(w.acctA, w.gspSub, 1000, gridbank.Micro(1000), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	word, err := chain.Word(500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gridbank.VerifyWord(&chain.Commitment, 500, word); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRURPricing(b *testing.B) {
	// Price a full six-line record against a rate card.
	rec := &gridbank.UsageRecord{}
	rec.User.CertificateName = "CN=alice"
	rec.Resource.CertificateName = "CN=gsp"
	rec.SetQuantity(gridbank.ItemCPU, 3600)
	rec.SetQuantity(gridbank.ItemWallClock, 3600)
	rec.SetQuantity(gridbank.ItemMemory, 512*3600)
	rec.SetQuantity(gridbank.ItemStorage, 100*3600)
	rec.SetQuantity(gridbank.ItemNetwork, 250)
	rec.SetQuantity(gridbank.ItemSoftware, 30)
	card := &gridbank.RateCard{
		Provider: "CN=gsp",
		Currency: gridbank.GridDollar,
		Rates: map[gridbank.UsageItem]gridbank.Rate{
			gridbank.ItemCPU:       gridbank.PerHour(2_000_000),
			gridbank.ItemWallClock: gridbank.PerHour(100_000),
			gridbank.ItemMemory:    gridbank.PerMBHour(1_000),
			gridbank.ItemStorage:   gridbank.PerMBHour(100),
			gridbank.ItemNetwork:   gridbank.PerMB(10_000),
			gridbank.ItemSoftware:  gridbank.PerHour(10_000_000),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridbank.PriceUsage(rec, card); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrokerSchedule(b *testing.B) {
	jobs := gridbank.BagWorkload(gridbank.BagOptions{Owner: "CN=a", N: 100, MeanLengthMI: 50_000, Seed: 1})
	rates := &gridbank.RateCard{
		Provider: "CN=p",
		Currency: gridbank.GridDollar,
		Rates: map[gridbank.UsageItem]gridbank.Rate{
			gridbank.ItemCPU:       gridbank.PerHour(2_000_000),
			gridbank.ItemWallClock: gridbank.PerHour(0),
			gridbank.ItemMemory:    gridbank.PerMBHour(0),
			gridbank.ItemStorage:   gridbank.PerMBHour(0),
			gridbank.ItemNetwork:   gridbank.PerMB(0),
			gridbank.ItemSoftware:  gridbank.PerHour(2_000_000),
		},
	}
	cands := []gridbank.Candidate{
		{Provider: "CN=p", Nodes: 16, RatingMIPS: 800, Rates: rates},
		{Provider: "CN=q", Nodes: 16, RatingMIPS: 1600, Rates: rates},
	}
	qos := gridbank.QoS{Deadline: time.Hour, Budget: gridbank.G(100000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridbank.ScheduleJobs(jobs, cands, qos, gridbank.CostTime); err != nil {
			b.Fatal(err)
		}
	}
}
