package core

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/pki"
)

// benchWire stands up a live TLS server plus one pipelined client and
// a funded account population for wire-layer benchmarks.
type benchWire struct {
	client *Client
	payers []accounts.ID
	payees []accounts.ID
}

func newBenchWire(b *testing.B, journal db.Journal, pairs int) *benchWire {
	b.Helper()
	ca, err := pki.NewCA("Bench CA", "VO-B", 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	ts := pki.NewTrustStore(ca.Certificate())
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "gridbank", Organization: "VO-B", IsServer: true})
	if err != nil {
		b.Fatal(err)
	}
	// The benchmark client dials as an admin: it may then drive
	// transfers from any of the per-pair accounts below.
	userID, err := ca.Issue(pki.IssueOptions{CommonName: "bench-admin", Organization: "VO-B"})
	if err != nil {
		b.Fatal(err)
	}
	store, err := db.Open(journal)
	if err != nil {
		b.Fatal(err)
	}
	bank, err := NewBank(store, BankConfig{Identity: bankID, Trust: ts, Admins: []string{userID.SubjectName()}})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(bank, bankID)
	if err != nil {
		b.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })

	bw := &benchWire{}
	led := bank.Ledger()
	for i := 0; i < pairs; i++ {
		payer, err := led.CreateAccount(fmt.Sprintf("CN=bench-payer-%d", i), "VO-B", "")
		if err != nil {
			b.Fatal(err)
		}
		if err := led.Deposit(payer.AccountID, currency.FromG(1_000_000)); err != nil {
			b.Fatal(err)
		}
		payee, err := led.CreateAccount(fmt.Sprintf("CN=bench-payee-%d", i), "VO-B", "")
		if err != nil {
			b.Fatal(err)
		}
		bw.payers = append(bw.payers, payer.AccountID)
		bw.payees = append(bw.payees, payee.AccountID)
	}
	c, err := Dial(ln.Addr().String(), userID, ts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	bw.client = c
	return bw
}

// BenchmarkParallelPipelinedPing: many callers multiplexing the
// cheapest round trip over ONE connection.
func BenchmarkParallelPipelinedPing(b *testing.B) {
	bw := newBenchWire(b, nil, 1)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := bw.client.Ping(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelPipelinedTransferDurable: concurrent fsync-durable
// transfers multiplexed over ONE connection — the path where pipelining
// lets callers share the group-commit WAL flush.
func BenchmarkParallelPipelinedTransferDurable(b *testing.B) {
	dir := b.TempDir()
	j, err := db.OpenFileJournal(filepath.Join(dir, "bench.wal"), true)
	if err != nil {
		b.Fatal(err)
	}
	defer os.Remove(filepath.Join(dir, "bench.wal"))
	const pairs = 32
	bw := newBenchWire(b, j, pairs)
	var slot atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(slot.Add(1)) % pairs
		for pb.Next() {
			if _, err := bw.client.DirectTransfer(bw.payers[i], bw.payees[i], currency.FromMicro(1), ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSerialPing is the single-caller round-trip baseline — the
// regression guard for pipelining overhead.
func BenchmarkSerialPing(b *testing.B) {
	bw := newBenchWire(b, nil, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bw.client.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}
