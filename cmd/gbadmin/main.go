// Command gbadmin performs the §5.2.1 GridBank Admin API operations.
// The identity presented must be in the bank's administrator table
// (gridbankd bootstraps "banker").
//
//	gbadmin -server host:7776 -ca ca.pem -cert banker.crt -key banker.key <op> [args]
//
// Operations:
//
//	deposit <account-id> <amount>
//	withdraw <account-id> <amount>
//	credit-limit <account-id> <amount>
//	cancel <transaction-id>
//	close <account-id> [transfer-to-account-id]
//	accounts
//	usage-status
//	usage-drain [timeout-seconds]
//	micropay-status
//	micropay-drain [timeout-seconds]
//	metrics
//
// One operation is offline and needs no server or identity:
//
//	fsck <data-dir>     verify journals + checkpoint generations on disk
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

func main() {
	var (
		server = flag.String("server", "127.0.0.1:7776", "GridBank server address")
		caPath = flag.String("ca", "ca.pem", "trusted CA certificate bundle")
		cert   = flag.String("cert", "banker.crt", "administrator certificate file")
		key    = flag.String("key", "banker.key", "administrator key file")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "fsck" {
		// Offline: verifies the data directory directly, no server dial.
		if flag.NArg() < 2 {
			log.Fatal("gbadmin: fsck needs a data directory argument")
		}
		healthy, err := runFsck(os.Stdout, flag.Arg(1))
		if err != nil {
			log.Fatalf("gbadmin: %v", err)
		}
		if !healthy {
			os.Exit(1)
		}
		return
	}
	if err := run(*server, *caPath, *cert, *key, flag.Args()); err != nil {
		log.Fatalf("gbadmin: %v", err)
	}
}

func run(server, caPath, certPath, keyPath string, args []string) error {
	dir, base := filepath.Split(certPath)
	if dir == "" {
		dir = "."
	}
	id, err := pki.LoadIdentity(dir, strings.TrimSuffix(base, ".crt"))
	if err != nil {
		return err
	}
	cas, err := pki.LoadCACerts(caPath)
	if err != nil {
		return err
	}
	client, err := core.Dial(server, id, pki.NewTrustStore(cas...))
	if err != nil {
		return err
	}
	// Offer the binary codec; a seed-era server ignores the unknown
	// field and the session stays on JSON.
	client.OfferCodecs = []string{wire.CodecBin1, wire.CodecJSON}
	defer client.Close()

	op, rest := args[0], args[1:]
	amountArg := func(i int) (currency.Amount, error) {
		if i >= len(rest) {
			return 0, fmt.Errorf("missing amount")
		}
		return currency.Parse(rest[i])
	}
	acctArg := func(i int) accounts.ID {
		if i >= len(rest) {
			log.Fatal("gbadmin: missing account ID")
		}
		return accounts.ID(rest[i])
	}

	switch op {
	case "deposit":
		amount, err := amountArg(1)
		if err != nil {
			return err
		}
		if err := client.AdminDeposit(acctArg(0), amount); err != nil {
			return err
		}
		fmt.Println("deposited")
	case "withdraw":
		amount, err := amountArg(1)
		if err != nil {
			return err
		}
		if err := client.AdminWithdraw(acctArg(0), amount); err != nil {
			return err
		}
		fmt.Println("withdrawn")
	case "credit-limit":
		amount, err := amountArg(1)
		if err != nil {
			return err
		}
		if err := client.AdminChangeCreditLimit(acctArg(0), amount); err != nil {
			return err
		}
		fmt.Println("limit set")
	case "cancel":
		if len(rest) < 1 {
			return fmt.Errorf("missing transaction ID")
		}
		txID, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			return err
		}
		if err := client.AdminCancelTransfer(txID); err != nil {
			return err
		}
		fmt.Println("cancelled")
	case "close":
		var to accounts.ID
		if len(rest) > 1 {
			to = accounts.ID(rest[1])
		}
		if err := client.AdminCloseAccount(acctArg(0), to); err != nil {
			return err
		}
		fmt.Println("closed")
	case "accounts":
		accts, err := client.AdminListAccounts()
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(accts, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	case "usage-status":
		st, err := client.UsageStatus()
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("queue_depth=%d in_flight=%d parked=%d pending=%d\n%s\n",
			st.QueueDepth, st.InFlight, st.Failed, st.Pending, b)
	case "micropay-status":
		st, err := client.MicropayStatus()
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("queue_depth=%d in_flight=%d parked=%d pending=%d settled_ticks=%d\n%s\n",
			st.QueueDepth, st.InFlight, st.Failed, st.Pending, st.SettledTicks, b)
	case "metrics":
		snap, err := client.MetricsSnapshot()
		if err != nil {
			return err
		}
		if !snap.Enabled {
			fmt.Println("telemetry disabled: the server has no metrics registry")
			return nil
		}
		b, err := json.MarshalIndent(snap.Snapshot, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	case "usage-drain", "micropay-drain":
		timeout := 30 * time.Second
		if len(rest) > 0 {
			secs, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("bad timeout %q: %w", rest[0], err)
			}
			timeout = time.Duration(secs) * time.Second
		}
		var st any
		var err error
		if op == "usage-drain" {
			st, err = client.UsageDrain(timeout)
		} else {
			st, err = client.MicropayDrain(timeout)
		}
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("drained\n%s\n", b)
	default:
		return fmt.Errorf("unknown operation %q", op)
	}
	return nil
}
