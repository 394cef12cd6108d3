// Package experiments implements the reproduction harness: one runnable
// experiment per figure and per quantified claim of the GridBank paper
// (cmd/experiments -list is the index). Each experiment builds its own
// world — bank, PKI, providers, consumers, simulator — runs the scenario,
// and returns a printable report. cmd/experiments is the CLI front end;
// bench_test.go benchmarks the same entry points.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/charging"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/meter"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
	"gridbank/internal/trade"
)

// World is an in-process single-VO Grid: a bank plus helpers to mint
// funded identities and provider stacks. Experiments that need the wire
// (E3) add a TLS server on top.
type World struct {
	CA    *pki.CA
	Trust *pki.TrustStore
	Bank  *core.Bank
	Admin string // admin subject
	Clock *VClock
}

// VClock is a controllable clock shared by the bank and the scenario.
type VClock struct{ t time.Time }

// Now returns the current virtual time.
func (c *VClock) Now() time.Time { return c.t }

// Advance moves the clock forward.
func (c *VClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// Set jumps the clock to t (never backwards).
func (c *VClock) Set(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// NewWorld builds a fresh in-process Grid world.
func NewWorld() (*World, error) {
	ca, err := pki.NewCA("VO-X CA", "VO-X", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "gridbank", Organization: "VO-X", IsServer: true})
	if err != nil {
		return nil, err
	}
	trust := pki.NewTrustStore(ca.Certificate())
	clock := &VClock{t: time.Now()}
	const admin = "CN=experiment-admin"
	bank, err := core.NewBank(db.MustOpenMemory(), core.BankConfig{
		Identity: bankID, Trust: trust, Admins: []string{admin}, Now: clock.Now,
	})
	if err != nil {
		return nil, err
	}
	return &World{CA: ca, Trust: trust, Bank: bank, Admin: admin, Clock: clock}, nil
}

// NewActor issues an identity, opens its account and funds it.
func (w *World) NewActor(name string, funds currency.Amount) (*pki.Identity, accounts.ID, error) {
	id, err := w.CA.Issue(pki.IssueOptions{CommonName: name, Organization: "VO-X"})
	if err != nil {
		return nil, "", err
	}
	resp, err := w.Bank.CreateAccount(id.SubjectName(), &core.CreateAccountRequest{OrganizationName: "VO-X"})
	if err != nil {
		return nil, "", err
	}
	if funds.IsPositive() {
		if _, err := w.Bank.AdminDeposit(w.Admin, &core.AdminAmountRequest{
			AccountID: resp.Account.AccountID, Amount: funds,
		}); err != nil {
			return nil, "", err
		}
	}
	return id, resp.Account.AccountID, nil
}

// Provider bundles one GSP's full stack: identity, account, trade server,
// meter, charging module.
type Provider struct {
	Identity *pki.Identity
	Account  accounts.ID
	GTS      *trade.Server
	Meter    *meter.Meter
	GBCM     *charging.Module
}

// bankRedeemer adapts the in-process bank to the GBCM's Redeemer.
type bankRedeemer struct {
	bank    *core.Bank
	subject string
}

func (r *bankRedeemer) RedeemCheque(c *payment.SignedCheque, cl *payment.ChequeClaim) (*core.RedeemChequeResponse, error) {
	return r.bank.RedeemCheque(r.subject, &core.RedeemChequeRequest{Cheque: *c, Claim: *cl})
}

func (r *bankRedeemer) RedeemChain(c *payment.SignedChain, cl *payment.ChainClaim) (*core.RedeemChainResponse, error) {
	return r.bank.RedeemChain(r.subject, &core.RedeemChainRequest{Chain: *c, Claim: *cl})
}

// NewProvider stands up a complete GSP stack with the given posted rates
// and template-pool size.
func (w *World) NewProvider(name string, rates map[rur.Item]currency.Rate, poolSize int) (*Provider, error) {
	id, acct, err := w.NewActor(name, 0)
	if err != nil {
		return nil, err
	}
	gts, err := trade.NewServer(trade.ServerConfig{
		Identity: id,
		Model:    trade.PostedPrice{Card: rates},
		Now:      w.Clock.Now,
	})
	if err != nil {
		return nil, err
	}
	grm, err := meter.New(id.SubjectName(), "sim-cluster")
	if err != nil {
		return nil, err
	}
	pool, err := charging.NewTemplatePool("grid", poolSize, nil)
	if err != nil {
		return nil, err
	}
	gbcm, err := charging.NewModule(charging.ModuleConfig{
		Identity: id,
		Trust:    w.Trust,
		Pool:     pool,
		Redeemer: &bankRedeemer{bank: w.Bank, subject: id.SubjectName()},
		Now:      w.Clock.Now,
	})
	if err != nil {
		return nil, err
	}
	return &Provider{Identity: id, Account: acct, GTS: gts, Meter: grm, GBCM: gbcm}, nil
}

// StandardRates is the default posted rate card used across experiments:
// 2 G$/CPU-hour, 0.1 G$/hour wall clock, 0.001 G$/MB-hour memory,
// 0.0001 G$/MB-hour storage, 0.01 G$/MB traffic, 10 G$/hour software.
func StandardRates() map[rur.Item]currency.Rate {
	return map[rur.Item]currency.Rate{
		rur.ItemCPU:       currency.PerHour(2 * currency.Scale),
		rur.ItemWallClock: currency.PerHour(currency.Scale / 10),
		rur.ItemMemory:    currency.PerMBHour(currency.Scale / 1000),
		rur.ItemStorage:   currency.PerMBHour(currency.Scale / 10000),
		rur.ItemNetwork:   currency.PerMB(currency.Scale / 100),
		rur.ItemSoftware:  currency.PerHour(10 * currency.Scale),
	}
}

// ScaledRates multiplies StandardRates by num/den (heterogeneous pricing).
func ScaledRates(num, den int64) map[rur.Item]currency.Rate {
	out := StandardRates()
	for k, v := range out {
		out[k] = v.Scale(num, den)
	}
	return out
}

// accountsID converts a stringified account ID back to the typed form.
func accountsID(s string) accounts.ID { return accounts.ID(s) }

// pkiIssue is a tiny option builder for experiment identities.
func pkiIssue(cn string) pki.IssueOptions {
	return pki.IssueOptions{CommonName: cn, Organization: "VO-X"}
}

// newUsageRecord builds a small, valid one-CPU-hour RUR for flows that
// exercise admission/settlement without a full simulation.
func newUsageRecord(consumer, provider, jobID string, now time.Time) *rur.Record {
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: consumer},
		Job:      rur.JobDetails{JobID: jobID, Application: "bench", Start: now.Add(-time.Hour), End: now},
		Resource: rur.ResourceDetails{Host: "sim", CertificateName: provider, LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, 3600)
	rec.SetQuantity(rur.ItemWallClock, 3600)
	rec.SetQuantity(rur.ItemMemory, 256*3600)
	rec.SetQuantity(rur.ItemStorage, 50*3600)
	rec.SetQuantity(rur.ItemNetwork, 20)
	rec.SetQuantity(rur.ItemSoftware, 60)
	return rec
}

// Table renders aligned experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
