package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

func pkiIssueOpts(cn string) pki.IssueOptions {
	return pki.IssueOptions{CommonName: cn, Organization: "VO-A"}
}

// These tests cover the multiplexed transport: concurrent per-connection
// dispatch on the server, pipelined demux on the client, and the §3.2
// gate semantics the concurrency must not weaken.

// registerBlockOp installs a custom op that parks until released,
// signalling each entry on started.
func registerBlockOp(t *testing.T, srv *Server, started chan struct{}, release chan struct{}) {
	t.Helper()
	err := srv.RegisterOp("test.block", func(subject string, body []byte) (any, error) {
		started <- struct{}{}
		<-release
		return map[string]bool{"ok": true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerRespondsOutOfOrder proves the wire-level contract: a
// response for a later cheap request overtakes an earlier slow one on
// the same connection, matched by ID.
func TestServerRespondsOutOfOrder(t *testing.T) {
	lw := newLiveWorld(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockOp(t, lw.server, started, release)

	conn := rawTLSConn(t, lw, lw.alice)
	wc := wire.NewConn(conn)
	if err := wc.WriteRequest(&wire.Request{ID: 1, Op: "test.block"}); err != nil {
		t.Fatal(err)
	}
	<-started // the slow op is executing, not queued
	if err := wc.WriteRequest(&wire.Request{ID: 2, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	resp, err := wc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 || !resp.OK {
		t.Fatalf("first response = %+v, want the ping (ID 2) to overtake", resp)
	}
	close(release)
	resp, err = wc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || !resp.OK {
		t.Fatalf("second response = %+v, want the released slow op (ID 1)", resp)
	}
}

// TestSlowOpDoesNotBlockConcurrentRead is the head-of-line test through
// the full client stack: a parked durable-ish op on a connection does
// not serialize a concurrent CheckFunds on the same connection.
func TestSlowOpDoesNotBlockConcurrentRead(t *testing.T) {
	lw := newLiveWorld(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockOp(t, lw.server, started, release)

	c := lw.client(t, lw.alice)
	slowDone := make(chan error, 1)
	go func() {
		var out map[string]bool
		slowDone <- c.Call("test.block", nil, &out)
	}()
	<-started

	fastDone := make(chan error, 1)
	go func() {
		fastDone <- c.CheckFunds(lw.aliceAcct.AccountID, currency.FromG(1))
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("CheckFunds behind a parked op: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CheckFunds head-of-line-blocked behind a slow op on the same connection")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("released slow op: %v", err)
	}
}

// TestInFlightCallsFailOnConnectionDrop: a mid-pipeline transport
// failure fans out to every parked caller instead of stranding them.
func TestInFlightCallsFailOnConnectionDrop(t *testing.T) {
	lw := newLiveWorld(t)
	const callers = 4
	started := make(chan struct{}, callers)
	release := make(chan struct{})
	defer close(release)
	registerBlockOp(t, lw.server, started, release)

	c := lw.client(t, lw.alice)
	done := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			var out map[string]bool
			done <- c.Call("test.block", nil, &out)
		}()
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	// Sever every server-side connection mid-pipeline.
	lw.server.mu.Lock()
	for conn := range lw.server.conns {
		conn.Close()
	}
	lw.server.mu.Unlock()
	for i := 0; i < callers; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("parked call reported success after its connection died")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d stranded after connection drop", i)
		}
	}
	// The client redials transparently on the next call.
	if _, err := c.Ping(); err != nil {
		if _, err2 := c.Ping(); err2 != nil {
			t.Fatalf("redial after fan-out failed: %v / %v", err, err2)
		}
	}
}

// TestUnknownSubjectGateUnderPipelining: §3.2 regression — a stranger
// pipelines a denied op and a CreateAccount back-to-back; the deny must
// drop the connection WITHOUT executing the second in-flight request.
func TestUnknownSubjectGateUnderPipelining(t *testing.T) {
	lw := newLiveWorld(t)
	stranger, err := lw.ca.Issue(pkiIssueOpts("stranger-pipeline"))
	if err != nil {
		t.Fatal(err)
	}
	conn := rawTLSConn(t, lw, stranger)
	wc := wire.NewConn(conn)
	// Both frames hit the server before it has answered anything.
	if err := wc.WriteRequest(&wire.Request{ID: 1, Op: OpAccountDetails, Body: []byte(`{"account_id":"x"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteRequest(&wire.Request{ID: 2, Op: OpCreateAccount, Body: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	resp, err := wc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || resp.OK || resp.Code != CodeDenied {
		t.Fatalf("gate response = %+v", resp)
	}
	// The connection is dropped, as the paper prescribes…
	if _, err := wc.ReadResponse(); err == nil {
		t.Fatal("connection survived the deny")
	}
	// …and the pipelined CreateAccount behind the deny never executed.
	if lw.bank.Authorize(stranger.SubjectName()) == nil {
		t.Fatal("request pipelined behind the deny executed: stranger got an account")
	}
}

// TestServerMaxInFlightBackpressure: the per-connection cap admits
// exactly MaxInFlight concurrent dispatches; the overflow request waits
// for a slot instead of executing or erroring.
func TestServerMaxInFlightBackpressure(t *testing.T) {
	w := newTestWorld(t)
	lw := newLiveWorldWith(t, w, func(srv *Server) { srv.MaxInFlight = 2 })
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	registerBlockOp(t, lw.server, started, release)

	c := lw.client(t, lw.alice)
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			var out map[string]bool
			done <- c.Call("test.block", nil, &out)
		}()
	}
	<-started
	<-started
	select {
	case <-started:
		t.Fatal("third dispatch ran past MaxInFlight=2")
	case <-time.After(200 * time.Millisecond):
	}
	close(release) // frees a slot; the queued third request now runs
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestIdleConnectionDropped: a connection with no traffic and nothing
// in flight is reaped by the idle watchdog; the client transparently
// redials afterwards.
func TestIdleConnectionDropped(t *testing.T) {
	w := newTestWorld(t)
	lw := newLiveWorldWith(t, w, func(srv *Server) { srv.IdleTimeout = 100 * time.Millisecond })
	c := lw.client(t, lw.alice)
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lw.server.mu.Lock()
		n := len(lw.server.conns)
		lw.server.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle connection not reaped: %d still open", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Ping(); err != nil {
		if _, err2 := c.Ping(); err2 != nil {
			t.Fatalf("redial after idle drop failed: %v / %v", err, err2)
		}
	}
}

// TestIdleTimeoutSparesParkedCalls: a connection whose only activity is
// a long-running in-flight request is NOT idle.
func TestIdleTimeoutSparesParkedCalls(t *testing.T) {
	w := newTestWorld(t)
	lw := newLiveWorldWith(t, w, func(srv *Server) { srv.IdleTimeout = 100 * time.Millisecond })
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockOp(t, lw.server, started, release)

	c := lw.client(t, lw.alice)
	done := make(chan error, 1)
	go func() {
		var out map[string]bool
		done <- c.Call("test.block", nil, &out)
	}()
	<-started
	time.Sleep(400 * time.Millisecond) // several idle periods
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked call killed by idle watchdog: %v", err)
	}
}

// TestMaxConnsAcceptGate: connections beyond MaxConns are refused at
// accept; closing one re-opens the door.
func TestMaxConnsAcceptGate(t *testing.T) {
	w := newTestWorld(t)
	lw := newLiveWorldWith(t, w, func(srv *Server) { srv.MaxConns = 1 })
	c1 := lw.client(t, lw.alice)
	if _, err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c2 := lw.client(t, lw.gsp)
	if _, err := c2.Ping(); err == nil {
		t.Fatal("second connection admitted past MaxConns=1")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c2.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing the first connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientDemuxRace hammers one pipelined client from many
// goroutines with mixed reads and mutations — the demux-map race test
// (run under -race in CI).
func TestClientDemuxRace(t *testing.T) {
	lw := newLiveWorld(t)
	c := lw.client(t, lw.alice)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if n%2 == 0 {
					if _, err := c.AccountDetails(lw.aliceAcct.AccountID); err != nil {
						errs <- fmt.Errorf("worker %d details: %w", n, err)
						return
					}
				} else if _, err := c.Ping(); err != nil {
					errs <- fmt.Errorf("worker %d ping: %w", n, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelinedConservationUnderLoad: concurrent transfers multiplexed
// over ONE connection conserve money end to end.
func TestPipelinedConservationUnderLoad(t *testing.T) {
	lw := newLiveWorld(t)
	before, err := lw.bank.Ledger().TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	alice := lw.client(t, lw.alice)
	const workers, transfers = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < transfers; k++ {
				if _, err := alice.DirectTransfer(lw.aliceAcct.AccountID, lw.gspAcct.AccountID, currency.FromMicro(10), ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after, err := lw.bank.Ledger().TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("money not conserved over pipelined wire: %s -> %s", before, after)
	}
}

// TestOversizedResponseAnswersTyped: a response body past wire.MaxFrame
// must come back as a typed internal error on the SAME connection —
// never a silent drop that strands the pipelined caller forever.
func TestOversizedResponseAnswersTyped(t *testing.T) {
	lw := newLiveWorld(t)
	big := strings.Repeat("a", wire.MaxFrame)
	if err := lw.server.RegisterOp("test.big", func(subject string, body []byte) (any, error) {
		return map[string]string{"pad": big}, nil
	}); err != nil {
		t.Fatal(err)
	}
	c := lw.client(t, lw.alice)
	var out map[string]string
	err := c.Call("test.big", nil, &out)
	if !IsRemoteCode(err, CodeInternal) {
		t.Fatalf("oversized response err = %v, want %s", err, CodeInternal)
	}
	// The connection survived; a normal call still works.
	if _, err := c.Ping(); err != nil {
		t.Fatalf("connection dead after oversized response: %v", err)
	}
}

// TestOversizedRequestFailsOnlyThatCall: a request frame past
// wire.MaxFrame fails locally without tearing down the connection or
// the sibling calls parked on it.
func TestOversizedRequestFailsOnlyThatCall(t *testing.T) {
	lw := newLiveWorld(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	registerBlockOp(t, lw.server, started, release)

	c := lw.client(t, lw.alice)
	parked := make(chan error, 1)
	go func() {
		var out map[string]bool
		parked <- c.Call("test.block", nil, &out)
	}()
	<-started

	var out map[string]string
	err := c.Call("test.big", map[string]string{"pad": strings.Repeat("a", wire.MaxFrame)}, &out)
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	select {
	case err := <-parked:
		t.Fatalf("sibling in-flight call killed by a local encode failure: %v", err)
	default:
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("parked call after sibling encode failure: %v", err)
	}
}

// TestStalledReaderBoundedByMaxInFlight: a peer that pipelines requests
// but never reads responses must not accumulate more than MaxInFlight
// completed dispatches server-side (backpressure holds while the writer
// is wedged).
func TestStalledReaderBoundedByMaxInFlight(t *testing.T) {
	w := newTestWorld(t)
	lw := newLiveWorldWith(t, w, func(srv *Server) {
		srv.MaxInFlight = 2
		srv.WriteTimeout = -1 // never give up on the wedged peer; the cap must hold alone
	})
	conn := rawTLSConn(t, lw, lw.alice)
	wc := wire.NewConn(conn)
	var dispatched atomic.Int64
	if err := lw.server.RegisterOp("test.count", func(subject string, body []byte) (any, error) {
		dispatched.Add(1)
		// A response large enough that a few fill the TLS/TCP buffers
		// of a reader that never drains them.
		return map[string]string{"pad": strings.Repeat("x", 1<<20)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Fire many requests and read nothing.
	const total = 40
	for i := 0; i < total; i++ {
		if err := wc.WriteRequest(&wire.Request{ID: uint64(i + 1), Op: "test.count"}); err != nil {
			t.Fatal(err)
		}
	}
	// Once the kernel's socket buffers fill, the writer wedges, the
	// response queue and semaphore fill, and dispatch must PLATEAU well
	// short of the pipelined total. (If the semaphore were released
	// before queueing, all 40 would dispatch regardless.)
	deadline := time.Now().Add(10 * time.Second)
	var plateau int64
	for {
		before := dispatched.Load()
		time.Sleep(300 * time.Millisecond)
		plateau = dispatched.Load()
		if plateau == before || time.Now().After(deadline) {
			break
		}
	}
	if plateau >= total {
		t.Fatalf("all %d dispatches ran against a stalled reader (MaxInFlight=2): backpressure never engaged", plateau)
	}
}
