package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/rur"
	"gridbank/internal/usage"
)

// attachPipeline wires a settlement pipeline into the world's bank.
func attachPipeline(t *testing.T, w *testWorld, cfg usage.Config) *usage.Pipeline {
	t.Helper()
	cfg.Ledger = w.bank.Ledger()
	cfg.Spool = db.MustOpenMemory()
	cfg.Now = w.clock.Now
	p, err := usage.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	w.bank.SetUsage(p)
	return p
}

func usageSubmission(t *testing.T, w *testWorld, id string, cpuSec int64) usage.Submission {
	t.Helper()
	now := w.clock.Now()
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: w.alice.SubjectName()},
		Job:      rur.JobDetails{JobID: id, Application: "wire", Start: now.Add(-time.Hour), End: now},
		Resource: rur.ResourceDetails{Host: "h", CertificateName: w.gsp.SubjectName(), LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, cpuSec)
	raw, err := rur.Encode(rec, rur.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[rur.Item]currency.Rate{rur.ItemCPU: currency.PerHour(currency.Scale)}
	for _, item := range rur.AllItems {
		if _, ok := rates[item]; !ok {
			rates[item] = currency.ZeroRate
		}
	}
	return usage.Submission{
		ID:        id,
		Drawer:    w.aliceAcct.AccountID,
		Recipient: w.gspAcct.AccountID,
		RUR:       raw,
		Rates:     &rur.RateCard{Provider: w.gsp.SubjectName(), Currency: currency.GridDollar, Rates: rates},
	}
}

// TestUsageOpsOverTLS drives Usage.Submit / Usage.Status / Usage.Drain
// through the real server and client: the first wire path from the
// paper's metering front door to the ledger.
func TestUsageOpsOverTLS(t *testing.T) {
	lw := newLiveWorld(t)
	attachPipeline(t, lw.testWorld, usage.Config{Workers: 1, RetryInterval: time.Millisecond})
	gsp := lw.client(t, lw.gsp)
	admin := lw.client(t, lw.admin)

	var subs []usage.Submission
	for i := 0; i < 10; i++ {
		subs = append(subs, usageSubmission(t, lw.testWorld, fmt.Sprintf("wire-%02d", i), 3600))
	}
	res, err := gsp.UsageSubmit(subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 10 {
		t.Fatalf("submit = %+v", res)
	}
	st, err := admin.UsageDrain(10 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st.Settled != 10 || st.Pending != 0 {
		t.Fatalf("drain stats = %+v", st)
	}
	if st, err = gsp.UsageStatus(); err != nil || st.Settled != 10 {
		t.Fatalf("status = %+v, %v", st, err)
	}
	avail, _ := lw.balance(t, lw.gspAcct.AccountID)
	if want := currency.FromG(10); avail != want {
		t.Errorf("gsp balance = %s, want %s", avail, want)
	}
	// Idempotent re-submission over the wire.
	if res, err = gsp.UsageSubmit(subs[:3]); err != nil || res.Duplicates != 3 || res.Accepted != 0 {
		t.Fatalf("resubmit = %+v, %v", res, err)
	}
}

// TestUsageAuthorization pins the trust model: a caller may only submit
// charges crediting accounts it owns; draining is admin-only; and a
// server without a pipeline answers "unavailable".
func TestUsageAuthorization(t *testing.T) {
	lw := newLiveWorld(t)
	attachPipeline(t, lw.testWorld, usage.Config{Workers: -1})
	alice := lw.client(t, lw.alice)
	gsp := lw.client(t, lw.gsp)

	sub := usageSubmission(t, lw.testWorld, "auth-1", 3600)
	// Alice (the drawer) must not be able to push charges crediting the
	// GSP's account.
	if _, err := alice.UsageSubmit([]usage.Submission{sub}); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("foreign-recipient submit err = %v, want %s", err, CodeDenied)
	}
	// Drain requires admin.
	if _, err := gsp.UsageDrain(time.Second); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("non-admin drain err = %v, want %s", err, CodeDenied)
	}
	// Unknown recipient account fails the batch.
	bad := sub
	bad.Recipient = "01-0001-09999999"
	if _, err := gsp.UsageSubmit([]usage.Submission{bad}); !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown-recipient err = %v, want %s", err, CodeNotFound)
	}
	// The RUR evidence must name the drawer's certificate holder as the
	// consumer: a fabricated record naming someone else is refused.
	forged := usageSubmission(t, lw.testWorld, "auth-forged", 3600)
	rec, err := rur.Decode(forged.RUR)
	if err != nil {
		t.Fatal(err)
	}
	rec.User.CertificateName = "CN=not-alice,O=VO-A"
	if forged.RUR, err = rur.Encode(rec, rur.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if _, err := gsp.UsageSubmit([]usage.Submission{forged}); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("forged-consumer err = %v, want %s", err, CodeDenied)
	}
	// ... and the caller as the provider.
	wrongGSP := usageSubmission(t, lw.testWorld, "auth-wrong-gsp", 3600)
	if rec, err = rur.Decode(wrongGSP.RUR); err != nil {
		t.Fatal(err)
	}
	rec.Resource.CertificateName = "CN=other-gsp,O=VO-A"
	if wrongGSP.RUR, err = rur.Encode(rec, rur.FormatJSON); err != nil {
		t.Fatal(err)
	}
	if _, err := gsp.UsageSubmit([]usage.Submission{wrongGSP}); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("wrong-provider err = %v, want %s", err, CodeDenied)
	}
}

func TestUsageDisabledAndOverloadedCodes(t *testing.T) {
	lw := newLiveWorld(t)
	gsp := lw.client(t, lw.gsp)
	// No pipeline attached: unavailable.
	if _, err := gsp.UsageStatus(); !IsRemoteCode(err, CodeUnavailable) {
		t.Fatalf("disabled status err = %v, want %s", err, CodeUnavailable)
	}
	// Tiny queue: overload surfaces as the stable wire code.
	attachPipeline(t, lw.testWorld, usage.Config{Workers: -1, MaxPending: 1})
	if _, err := gsp.UsageSubmit([]usage.Submission{
		usageSubmission(t, lw.testWorld, "ov-1", 36),
		usageSubmission(t, lw.testWorld, "ov-2", 36),
	}); !IsRemoteCode(err, CodeOverloaded) {
		t.Fatalf("overload err = %v, want %s", err, CodeOverloaded)
	}
	// And the typed error maps back through ErrorCode directly.
	if got := ErrorCode(fmt.Errorf("wrapped: %w", usage.ErrOverloaded)); got != CodeOverloaded {
		t.Errorf("ErrorCode(ErrOverloaded) = %q", got)
	}
	if got := ErrorCode(errors.New("boom")); got != CodeInternal {
		t.Errorf("ErrorCode(other) = %q", got)
	}
}
