package core

import (
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

// rawTLSConn opens an authenticated TLS connection to the live server so
// tests can speak malformed wire traffic beneath the Client layer.
func rawTLSConn(t *testing.T, lw *liveWorld, id *pki.Identity) *tls.Conn {
	t.Helper()
	cfg, err := pki.ClientTLSConfig(id, lw.ts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.DialTimeout("tcp", lw.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn := tls.Client(raw, cfg)
	if err := conn.Handshake(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestServerRejectsMalformedBodies(t *testing.T) {
	lw := newLiveWorld(t)
	conn := rawTLSConn(t, lw, lw.alice)
	wc := wire.NewConn(conn)

	// Garbage JSON body for a typed op: clean error, connection stays up.
	if err := wc.WriteRequest(&wire.Request{ID: 1, Op: OpAccountDetails, Body: json.RawMessage(`{"account_id":42}`)}); err != nil {
		t.Fatal(err)
	}
	resp, err := wc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("malformed body accepted")
	}
	// Empty body for a typed op.
	if err := wc.WriteRequest(&wire.Request{ID: 2, Op: OpDirectTransfer}); err != nil {
		t.Fatal(err)
	}
	resp, err = wc.ReadResponse()
	if err != nil || resp.OK {
		t.Fatalf("empty body: %+v, %v", resp, err)
	}
	// The connection still serves valid requests afterwards.
	if err := wc.WriteRequest(&wire.Request{ID: 3, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	resp, err = wc.ReadResponse()
	if err != nil || !resp.OK {
		t.Fatalf("connection poisoned: %+v, %v", resp, err)
	}
}

func TestServerDropsOversizedFrames(t *testing.T) {
	lw := newLiveWorld(t)
	conn := rawTLSConn(t, lw, lw.alice)
	// Header advertising a frame beyond MaxFrame: the server must drop
	// the connection rather than allocate.
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection after an oversized frame header")
	}
}

func TestConcurrentClientsMixedWorkload(t *testing.T) {
	lw := newLiveWorld(t)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id, err := lw.ca.Issue(pki.IssueOptions{CommonName: fmt.Sprintf("worker-%d", n), Organization: "VO-A"})
			if err != nil {
				errs <- err
				return
			}
			c, err := Dial(lw.addr, id, lw.ts)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			acct, err := c.CreateAccount("", "")
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < 20; k++ {
				if _, err := c.AccountDetails(acct.AccountID); err != nil {
					errs <- err
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
	// Ledger still consistent.
	if _, err := lw.bank.Ledger().TotalBalance(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRedeemSingleWinner: many provider threads race to redeem
// one cheque; exactly one wins.
func TestConcurrentRedeemSingleWinner(t *testing.T) {
	w := newTestWorld(t)
	resp, err := w.bank.RequestCheque(w.alice.SubjectName(), &RequestChequeRequest{
		AccountID: w.aliceAcct.AccountID, Amount: currency.FromG(10), PayeeCert: w.gsp.SubjectName(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	wins := 0
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := w.bank.RedeemCheque(w.gsp.SubjectName(), &RedeemChequeRequest{
				Cheque: resp.Cheque,
				Claim:  paymentClaim(resp.Cheque.Cheque.Serial, currency.FromG(10)),
			})
			if err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d redemptions succeeded", wins)
	}
	gspAvail, _ := w.balance(t, w.gspAcct.AccountID)
	if gspAvail != currency.FromG(10) {
		t.Fatalf("gsp got %s", gspAvail)
	}
}

func paymentClaim(serial string, amount currency.Amount) payment.ChequeClaim {
	return payment.ChequeClaim{Serial: serial, Amount: amount}
}
