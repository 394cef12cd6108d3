package node

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/wire"
)

// parentAnswers is what the commit that wrote testdata/ledger_db22fd7
// answered after recovering each data dir (README there).
type parentAnswers struct {
	Accounts   []accounts.Account             `json:"accounts"`
	Statements map[string]*accounts.Statement `json:"statements"`
	Transfers  map[uint64]*accounts.Transfer  `json:"transfers"`
	Replays    map[string]uint64              `json:"replays"`
	InDoubt    uint64                         `json:"in_doubt"`
}

var statementEnd = time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)

// sameJSON fails unless got and want marshal to the same bytes: the
// §5.2 response bodies the JSON wire codec would send.
func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// TestParentLedgerRowsAnswerSame: data dirs the parent commit wrote, one
// per journal generation, hold every §5.1 row kind as JSON — all five
// transaction types, a closed account, a credit limit, cancelled
// same- and cross-shard transfers with their reversals, a raw RUR,
// spent idempotency keys — plus an outbox row left between its commit
// point and its credit. Opened here they recover and answer
// AccountDetails, Statement and GetTransfer exactly as the parent did,
// through the ledger and over both wire codecs; and they keep doing so
// once this binary's bin1 rows and compact records sit on top of the
// legacy ones. (The host clock is UTC, as bin1 instants decode.)
func TestParentLedgerRowsAnswerSame(t *testing.T) {
	for _, gen := range []string{wire.CodecBin1, wire.CodecJSON} {
		t.Run(gen, func(t *testing.T) {
			fixture := filepath.Join("testdata", "ledger_db22fd7")
			raw, err := os.ReadFile(filepath.Join(fixture, "expect-"+gen+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var want parentAnswers
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			ents, err := os.ReadDir(filepath.Join(fixture, gen))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(fixture, gen, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			v := newTestVO(t)
			cfg := v.config(dir)
			n := mustOpen(t, cfg)
			led := n.Ledger()
			if esc, err := led.PendingEscrow(); err != nil || esc != 0 {
				t.Fatalf("escrow after recovery = %s, %v", esc, err)
			}
			if _, ok := want.Transfers[want.InDoubt]; !ok {
				t.Fatalf("fixture lost its in-doubt transfer %d", want.InDoubt)
			}
			alice, bob := want.Accounts[0].AccountID, want.Accounts[1].AccountID
			check := func(stage string) {
				t.Helper()
				accts, err := led.Accounts()
				if err != nil {
					t.Fatal(err)
				}
				sameJSON(t, stage+" accounts", accts, want.Accounts)
				for id, tr := range want.Transfers {
					got, err := led.GetTransfer(id)
					if err != nil {
						t.Fatal(err)
					}
					sameJSON(t, fmt.Sprintf("%s transfer %d", stage, id), got, tr)
				}
				for _, a := range want.Accounts {
					st, err := led.Statement(a.AccountID, time.Time{}, statementEnd)
					if err != nil {
						t.Fatal(err)
					}
					ws := want.Statements[string(a.AccountID)]
					// Rows written since sort after the parent's (higher IDs).
					if len(st.Transactions) < len(ws.Transactions) || len(st.Transfers) < len(ws.Transfers) {
						t.Fatalf("%s statement %s lost rows", stage, a.AccountID)
					}
					st.Transactions, st.Transfers = st.Transactions[:len(ws.Transactions)], st.Transfers[:len(ws.Transfers)]
					sameJSON(t, stage+" statement "+string(a.AccountID), st, ws)
				}
			}
			check("recovered")

			addr := serve(t, n)
			for _, offer := range [][]string{nil, {wire.CodecBin1}} {
				c := v.dial(t, addr, v.banker)
				c.OfferCodecs = offer
				for _, a := range want.Accounts {
					got, err := c.AccountDetails(a.AccountID)
					if err != nil {
						t.Fatal(err)
					}
					sameJSON(t, fmt.Sprintf("%v details %s", offer, a.AccountID), got, a)
					st, err := c.AccountStatement(a.AccountID, time.Time{}, statementEnd)
					if err != nil {
						t.Fatal(err)
					}
					sameJSON(t, fmt.Sprintf("%v statement %s", offer, a.AccountID), st, want.Statements[string(a.AccountID)])
				}
			}

			// Spent keys replay the parent's transfers and move nothing.
			for key, id := range want.Replays {
				tr, err := led.Transfer(alice, bob, currency.FromG(1), accounts.TransferOptions{DedupKey: key})
				if err != nil || tr.TransactionID != id {
					t.Fatalf("replay of %q = %v, %v; parent answered %d", key, tr, err, id)
				}
			}

			// New rows on top — a keyed cross-shard transfer with a RUR,
			// then its cancellation — leave every balance where it was.
			tr, err := led.Transfer(bob, alice, currency.FromG(2), accounts.TransferOptions{DedupKey: "k-new", RUR: []byte("new-rur")})
			if err != nil {
				t.Fatal(err)
			}
			if err := led.CancelTransfer(tr.TransactionID); err != nil {
				t.Fatal(err)
			}
			raw, err = led.ShardStore(led.ShardFor(bob)).Get("transfers", fmt.Sprintf("%020d", tr.TransactionID))
			if err != nil || raw[0] != wire.RowBin1 {
				t.Fatalf("new TRANSFER row = % x, %v; want bin1", raw[:min(len(raw), 4)], err)
			}
			check("mixed")
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			n = mustOpen(t, cfg)
			led = n.Ledger()
			check("mixed, replayed")
		})
	}
}
