package micropay_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/shard"
	"gridbank/internal/shard/simtest"
	"gridbank/internal/usage"
)

var testEpoch = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// world is a sharded ledger + redeemer + pipeline over crash-survivable
// journals, with a drawer funded to issue chains and payees on both
// shard sides of the drawer.
type world struct {
	t        *testing.T
	journals []*simtest.Journal
	spoolJ   *simtest.Journal
	spool    *db.Store
	led      *shard.Ledger
	red      *micropay.Redeemer
	pipe     *micropay.Pipeline
	clock    time.Time // advanced by tests; read through nowFn
	batch    int       // settlement batch size from the next boot on (0: default)
	crash    func(micropay.Boundary, string) error

	drawer    accounts.ID
	sameAcct  accounts.ID // payee on the drawer's shard
	crossAcct accounts.ID // payee on another shard
	sameCert  string
	crossCert string
	total     currency.Amount
}

func (w *world) nowFn() time.Time { return w.clock }

func newWorld(t *testing.T, shards int) *world {
	t.Helper()
	w := &world{t: t, clock: testEpoch, spoolJ: simtest.NewJournal()}
	w.journals = make([]*simtest.Journal, shards)
	for i := range w.journals {
		w.journals[i] = simtest.NewJournal()
	}
	w.boot()

	drawer, err := w.led.CreateAccount("CN=alice", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.drawer = drawer.AccountID
	ds := w.led.ShardFor(w.drawer)
	for i := 0; w.sameAcct == "" || (shards > 1 && w.crossAcct == ""); i++ {
		if i > 10000 {
			t.Fatal("could not place payees on both shard sides")
		}
		cert := fmt.Sprintf("CN=gsp-%d", i)
		a, err := w.led.CreateAccount(cert, "VO-X", "")
		if err != nil {
			t.Fatal(err)
		}
		if w.led.ShardFor(a.AccountID) == ds {
			if w.sameAcct == "" {
				w.sameAcct, w.sameCert = a.AccountID, cert
			}
		} else if w.crossAcct == "" {
			w.crossAcct, w.crossCert = a.AccountID, cert
		}
	}
	if err := w.led.Deposit(w.drawer, currency.FromG(1000)); err != nil {
		t.Fatal(err)
	}
	w.total, err = w.led.TotalBalance()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// boot (re)builds every store from its journal: redeemer recovery
// (chain-table scan + pin reseeding) runs in NewRedeemer, pipeline
// recovery in micropay.New.
func (w *world) boot() {
	w.t.Helper()
	stores := make([]*db.Store, len(w.journals))
	for i, j := range w.journals {
		j.Revive()
		st, err := db.Open(j)
		if err != nil {
			w.t.Fatalf("reboot shard %d: %v", i, err)
		}
		stores[i] = st
	}
	led, err := shard.New(stores, shard.Config{Now: w.nowFn})
	if err != nil {
		w.t.Fatal(err)
	}
	w.led = led
	red, err := micropay.NewRedeemer(usage.WrapSharded(led), w.nowFn)
	if err != nil {
		w.t.Fatal(err)
	}
	w.red = red
	w.spoolJ.Revive()
	spool, err := db.Open(w.spoolJ)
	if err != nil {
		w.t.Fatalf("reboot spool: %v", err)
	}
	w.spool = spool
	pipe, err := micropay.New(micropay.Config{
		Redeemer:    red,
		FindAccount: led.FindByCertificate,
		Spool:       spool,
		BatchSize:   w.batch,
		Workers:     -1, // deterministic: settlement only via SettleOnce/Drain
		Now:         w.nowFn,
		CrashHook: func(b micropay.Boundary, serial string) error {
			if w.crash != nil {
				return w.crash(b, serial)
			}
			return nil
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.pipe = pipe
}

func (w *world) reboot() {
	w.t.Helper()
	w.pipe.Close()
	w.boot()
}

// issue creates a chain from the drawer to payeeCert, locks its total,
// and registers the row — what Bank.RequestChain does, minus the wire.
func (w *world) issue(payeeCert string, length int, perWord currency.Amount, ttl time.Duration) *payment.Chain {
	w.t.Helper()
	ch, err := payment.NewChain(w.drawer, "CN=alice", payeeCert, length, perWord, currency.GridDollar, w.clock, ttl)
	if err != nil {
		w.t.Fatal(err)
	}
	total, err := ch.Commitment.Total()
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.led.CheckFunds(w.drawer, total); err != nil {
		w.t.Fatal(err)
	}
	if err := w.red.Put(&micropay.ChainRow{Commitment: ch.Commitment, State: micropay.StateOutstanding}); err != nil {
		w.t.Fatal(err)
	}
	return ch
}

func (w *world) word(ch *payment.Chain, i int) []byte {
	w.t.Helper()
	word, err := ch.Word(i)
	if err != nil {
		w.t.Fatal(err)
	}
	return word
}

func (w *world) avail(id accounts.ID) currency.Amount {
	w.t.Helper()
	a, err := w.led.Details(id)
	if err != nil {
		w.t.Fatal(err)
	}
	return a.AvailableBalance
}

func (w *world) locked(id accounts.ID) currency.Amount {
	w.t.Helper()
	a, err := w.led.Details(id)
	if err != nil {
		w.t.Fatal(err)
	}
	return a.LockedBalance
}

func (w *world) assertConserved() {
	w.t.Helper()
	total, err := w.led.TotalBalance()
	if err != nil {
		w.t.Fatal(err)
	}
	if total != w.total {
		w.t.Errorf("conservation violated: %s -> %s", w.total, total)
	}
	esc, err := w.led.PendingEscrow()
	if err != nil || !esc.IsZero() {
		w.t.Errorf("escrow residue = %v, %v", esc, err)
	}
}

// --- Redeemer ---------------------------------------------------------------

func TestRedeemSameShardIncremental(t *testing.T) {
	w := newWorld(t, 1)
	per := currency.MustParse("0.01")
	ch := w.issue(w.sameCert, 100, per, time.Hour)
	serial := ch.Commitment.Serial

	out, err := w.red.Redeem(serial, w.sameAcct, 25, w.word(ch, 25), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Paid != currency.MustParse("0.25") || out.Ticks != 25 || out.Index != 25 || out.TxID == 0 {
		t.Fatalf("redeem 25 = %+v", out)
	}
	// The second batch pays only the delta above the stored index.
	out, err = w.red.Redeem(serial, w.sameAcct, 40, w.word(ch, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Paid != currency.MustParse("0.15") || out.Ticks != 15 {
		t.Fatalf("redeem 40 = %+v", out)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.40") {
		t.Fatalf("payee = %s", got)
	}
	if got := w.locked(w.drawer); got != currency.MustParse("0.60") {
		t.Fatalf("drawer locked = %s", got)
	}
	// Replay of either settled claim is a stale-index duplicate.
	if _, err := w.red.Redeem(serial, w.sameAcct, 25, w.word(ch, 25), nil); !errors.Is(err, micropay.ErrStaleIndex) {
		t.Fatalf("replay err = %v", err)
	}
	w.assertConserved()
}

func TestRedeemCrossShardPinned(t *testing.T) {
	w := newWorld(t, 3)
	per := currency.MustParse("0.01")
	ch := w.issue(w.crossCert, 50, per, time.Hour)

	out, err := w.red.Redeem(ch.Commitment.Serial, w.crossAcct, 30, w.word(ch, 30), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CrossShard || out.Paid != currency.MustParse("0.30") || out.Index != 30 {
		t.Fatalf("cross redeem = %+v", out)
	}
	if got := w.avail(w.crossAcct); got != currency.MustParse("0.30") {
		t.Fatalf("payee = %s", got)
	}
	row, err := w.red.Get(ch.Commitment.Serial)
	if err != nil || row.PinTxID != 0 || row.RedeemedIndex != 30 {
		t.Fatalf("row after cross redeem = %+v, %v", row, err)
	}
	w.assertConserved()

	// Die right after pinning the next claim: the row holds a pin whose
	// transfer never started.
	serial := ch.Commitment.Serial
	w.red.Hook = func(b micropay.Boundary, _ string) error {
		if b == micropay.BoundaryPinned {
			return errors.New("injected crash")
		}
		return nil
	}
	if _, err := w.red.Redeem(serial, w.crossAcct, 40, w.word(ch, 40), nil); err == nil {
		t.Fatal("redeem survived the crash hook")
	}
	w.red.Hook = nil

	// A ledger verdict that arrives wrapped with fail-stopped storage is
	// an outage, not a verdict: the pin stays for the restart to finish.
	verdict := fmt.Errorf("%w: %w", accounts.ErrInsufficientLock, db.ErrStorageFailed)
	failing, err := micropay.NewRedeemer(failingTransfers{usage.WrapSharded(w.led), verdict}, w.nowFn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failing.Redeem(serial, w.crossAcct, 45, w.word(ch, 45), nil); !errors.Is(err, db.ErrStorageFailed) {
		t.Fatalf("redeem over failed storage = %v", err)
	}
	if row, err := w.red.Get(serial); err != nil || row.PinTxID == 0 || row.PinIndex != 40 {
		t.Fatalf("pin dropped on a storage failure: %+v, %v", row, err)
	}

	// The healthy ledger finishes the pinned claim, then takes the next.
	out, err = w.red.Redeem(serial, w.crossAcct, 45, w.word(ch, 45), nil)
	if err != nil || out.Index != 45 {
		t.Fatalf("redeem after recovery = %+v, %v", out, err)
	}
	if got := w.avail(w.crossAcct); got != currency.MustParse("0.45") {
		t.Fatalf("payee = %s", got)
	}
	w.assertConserved()
}

// failingTransfers is a cross-shard ledger whose pinned transfers all
// fail with err.
type failingTransfers struct {
	usage.CrossShardLedger
	err error
}

func (f failingTransfers) TransferWithID(uint64, accounts.ID, accounts.ID, currency.Amount, accounts.TransferOptions) (*accounts.Transfer, error) {
	return nil, f.err
}

func TestRedeemFullThenReplayIsStaleNotState(t *testing.T) {
	// A replayed claim against a finished chain must read as a
	// duplicate (ErrStaleIndex), not a state complaint — recovery code
	// resubmitting a settled claim relies on the distinction.
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 5, currency.FromG(1), time.Hour)
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 5, w.word(ch, 5), nil); err != nil {
		t.Fatal(err)
	}
	row, err := w.red.Get(ch.Commitment.Serial)
	if err != nil || row.State != micropay.StateRedeemed {
		t.Fatalf("row = %+v, %v", row, err)
	}
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 5, w.word(ch, 5), nil); !errors.Is(err, micropay.ErrStaleIndex) {
		t.Fatalf("replay on finished chain = %v", err)
	}
}

func TestReleaseUnlocksRemainder(t *testing.T) {
	w := newWorld(t, 1)
	per := currency.FromG(1)
	ch := w.issue(w.sameCert, 10, per, time.Hour)
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 4, w.word(ch, 4), nil); err != nil {
		t.Fatal(err)
	}
	out, err := w.red.Release(ch.Commitment.Serial, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Paid != currency.FromG(6) || out.State != micropay.StateReleased {
		t.Fatalf("release = %+v", out)
	}
	if got := w.locked(w.drawer); !got.IsZero() {
		t.Fatalf("drawer locked after release = %s", got)
	}
	// Neither a second release nor a late redemption may touch money.
	if _, err := w.red.Release(ch.Commitment.Serial, nil); !errors.Is(err, micropay.ErrChainState) {
		t.Fatalf("double release = %v", err)
	}
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 7, w.word(ch, 7), nil); !errors.Is(err, micropay.ErrChainState) {
		t.Fatalf("redeem after release = %v", err)
	}
	w.assertConserved()
}

func TestReleaseGateBlocksFlip(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	gateErr := errors.New("gate says no")
	if _, err := w.red.Release(ch.Commitment.Serial, func(*micropay.ChainRow) error { return gateErr }); !errors.Is(err, gateErr) {
		t.Fatalf("gated release = %v", err)
	}
	// Chain stays redeemable.
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 1, w.word(ch, 1), nil); err != nil {
		t.Fatalf("redeem after refused release: %v", err)
	}
}

func TestRedeemUnknownSerial(t *testing.T) {
	w := newWorld(t, 1)
	if _, err := w.red.Redeem("no-such-chain", w.sameAcct, 1, make([]byte, 32), nil); !errors.Is(err, micropay.ErrUnknownChain) {
		t.Fatalf("unknown serial = %v", err)
	}
}

func TestRedeemForgedWordRefused(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	forged := make([]byte, 32)
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 3, forged, nil); !errors.Is(err, payment.ErrBadWord) {
		t.Fatalf("forged word = %v", err)
	}
	// An inflated index with a real (lower) word must also fail.
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 6, w.word(ch, 5), nil); !errors.Is(err, payment.ErrBadWord) {
		t.Fatalf("inflated index = %v", err)
	}
	if got := w.avail(w.sameAcct); !got.IsZero() {
		t.Fatalf("payee credited on refusal: %s", got)
	}
}

func TestRedeemerRecoversLegacyRowWithoutWord(t *testing.T) {
	// Rows advanced before RedeemedWord existed verify the slow way
	// once, then re-anchor on the first successful claim.
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 20, currency.FromG(1), time.Hour)
	row, err := w.red.Get(ch.Commitment.Serial)
	if err != nil {
		t.Fatal(err)
	}
	legacy := *row
	legacy.RedeemedIndex = 5
	legacy.RedeemedWord = nil
	if err := w.red.Put(&legacy); err != nil {
		t.Fatal(err)
	}
	// Balance the books for the pre-advanced 5 words.
	if err := w.led.Unlock(w.drawer, currency.FromG(5)); err != nil {
		t.Fatal(err)
	}
	out, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 9, w.word(ch, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Paid != currency.FromG(4) || out.Ticks != 4 {
		t.Fatalf("legacy redeem = %+v", out)
	}
	row, err = w.red.Get(ch.Commitment.Serial)
	if err != nil || len(row.RedeemedWord) == 0 {
		t.Fatalf("row not re-anchored: %+v, %v", row, err)
	}
}

// --- Pipeline ---------------------------------------------------------------

func claimsFor(t *testing.T, ch *payment.Chain, indices ...int) []micropay.Claim {
	t.Helper()
	out := make([]micropay.Claim, 0, len(indices))
	for _, i := range indices {
		word, err := ch.Word(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, micropay.Claim{Serial: ch.Commitment.Serial, Index: i, Word: word})
	}
	return out
}

func TestPipelineStreamsAndSettles(t *testing.T) {
	w := newWorld(t, 1)
	per := currency.MustParse("0.001")
	ch := w.issue(w.sameCert, 500, per, time.Hour)

	res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 100, 200, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.AcceptedTicks != 300 || len(res.Rejected) != 0 {
		t.Fatalf("submit = %+v", res)
	}
	st, err := w.pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledTicks != 300 || st.Pending != 0 {
		t.Fatalf("drain = %+v", st)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.3") {
		t.Fatalf("payee = %s", got)
	}
	// All three claims folded into one spool row and one redemption; the
	// counter still says three claims were settled.
	if st.Batches != 1 || st.SettledClaims != 3 {
		t.Fatalf("batching counters = %+v", st)
	}
	w.assertConserved()
}

// spoolRows reads the spool table through the pipeline's codec, keyed
// by spool key.
func (w *world) spoolRows() map[string]*micropay.SpoolRow {
	w.t.Helper()
	return w.spoolRowsOf(w.spool)
}

func (w *world) spoolRowsOf(spool *db.Store) map[string]*micropay.SpoolRow {
	w.t.Helper()
	rows := make(map[string]*micropay.SpoolRow)
	err := spool.Scan(micropay.TableSpool, func(key string, value []byte) bool {
		row, err := micropay.DecodeSpoolRow(key, value)
		if err != nil {
			w.t.Errorf("spool row %s: %v", key, err)
			return true
		}
		rows[key] = row
		return true
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return rows
}

// TestIntakeFoldsEachChainToOneRow pins what Submit acknowledges and what
// it journals: the delta rule applied before the spool, exactly one row
// per chain whatever the batch looks like, and counters that still speak
// in claims.
func TestIntakeFoldsEachChainToOneRow(t *testing.T) {
	type claim struct {
		chain, index int
		forged       bool
		rur          string
	}
	type row struct{ index, claims int }
	run := func(chain int, indices ...int) []claim {
		out := make([]claim, len(indices))
		for i, idx := range indices {
			out[i] = claim{chain: chain, index: idx}
		}
		return out
	}
	ascending := make([]int, 16)
	for i := range ascending {
		ascending[i] = (i + 1) * 10
	}
	for _, tc := range []struct {
		name               string
		prior, batch       []claim // prior is acknowledged first, in its own Submit
		accepted, ticks    int
		duplicates, refuse int
		rows               map[int]row // chain → the one row this Submit spools for it
		rur                string      // evidence the chain-0 TRANSFER record must carry
	}{
		{name: "ascending run", batch: run(0, ascending...),
			accepted: 16, ticks: 160, rows: map[int]row{0: {160, 16}}},
		{name: "two chains interleaved",
			batch:    []claim{{chain: 0, index: 10}, {chain: 1, index: 5}, {chain: 0, index: 20}, {chain: 1, index: 10}, {chain: 0, index: 30}, {chain: 1, index: 15}},
			accepted: 6, ticks: 45, rows: map[int]row{0: {30, 3}, 1: {15, 3}}},
		{name: "descending run", batch: run(0, 30, 20, 10),
			accepted: 1, ticks: 30, duplicates: 2, rows: map[int]row{0: {30, 1}}},
		{name: "forged word in the middle",
			batch:    []claim{{chain: 0, index: 10}, {chain: 0, index: 20, forged: true}, {chain: 0, index: 30}, {chain: 0, index: 40}},
			accepted: 3, ticks: 40, refuse: 1, rows: map[int]row{0: {40, 3}}},
		{name: "replay of an acknowledged batch", prior: run(0, 10, 20, 30), batch: run(0, 10, 20, 30),
			duplicates: 3, rows: map[int]row{}},
		{name: "evidence of the top claim",
			batch:    []claim{{chain: 0, index: 10, rur: "rur-10"}, {chain: 0, index: 20, rur: "rur-20"}, {chain: 0, index: 30, rur: "rur-30"}},
			accepted: 3, ticks: 30, rows: map[int]row{0: {30, 3}}, rur: "rur-30"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 1)
			chains := []*payment.Chain{
				w.issue(w.sameCert, 400, currency.MustParse("0.01"), time.Hour),
				w.issue(w.sameCert, 400, currency.MustParse("0.01"), time.Hour),
			}
			build := func(cs []claim) []micropay.Claim {
				out := make([]micropay.Claim, len(cs))
				for i, c := range cs {
					out[i] = micropay.Claim{Serial: chains[c.chain].Commitment.Serial, Index: c.index, Word: w.word(chains[c.chain], c.index)}
					if c.forged {
						out[i].Word = make([]byte, 32)
					}
					if c.rur != "" {
						out[i].RUR = []byte(c.rur)
					}
				}
				return out
			}
			claims, ticks := 0, 0
			if len(tc.prior) > 0 {
				res, err := w.pipe.Submit(w.sameCert, build(tc.prior))
				if err != nil {
					t.Fatal(err)
				}
				claims, ticks = res.Accepted, res.AcceptedTicks
			}
			before := w.spoolRows()

			res, err := w.pipe.Submit(w.sameCert, build(tc.batch))
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted != tc.accepted || res.AcceptedTicks != tc.ticks || res.Duplicates != tc.duplicates || len(res.Rejected) != tc.refuse {
				t.Errorf("submit = %+v, want accepted %d, ticks %d, duplicates %d, rejected %d",
					res, tc.accepted, tc.ticks, tc.duplicates, tc.refuse)
			}
			claims, ticks = claims+res.Accepted, ticks+res.AcceptedTicks

			got := make(map[int]row)
			for key, r := range w.spoolRows() {
				if _, old := before[key]; old {
					continue
				}
				for i, ch := range chains {
					if r.Serial != ch.Commitment.Serial {
						continue
					}
					if _, twice := got[i]; twice {
						t.Errorf("chain %d has a second row %s from one Submit", i, key)
					}
					got[i] = row{r.Index, r.Claims}
				}
				if tc.rur != "" && string(r.RUR) != tc.rur {
					t.Errorf("row %s carries evidence %q, want %q", key, r.RUR, tc.rur)
				}
			}
			if !reflect.DeepEqual(got, tc.rows) {
				t.Errorf("spooled rows = %v, want %v", got, tc.rows)
			}
			if st := w.pipe.Status(); st.Pending != len(before)+len(tc.rows) {
				t.Errorf("pending = %d, want %d rows", st.Pending, len(before)+len(tc.rows))
			}

			st, err := w.pipe.Drain(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.SettledClaims != uint64(claims) || st.SettledTicks != uint64(ticks) || st.Pending != 0 || st.Failed != 0 {
				t.Errorf("drained = %+v, want %d claims and %d ticks settled", st, claims, ticks)
			}
			advance := 0
			for _, ch := range chains {
				chainRow, err := w.red.Get(ch.Commitment.Serial)
				if err != nil {
					t.Fatal(err)
				}
				advance += chainRow.RedeemedIndex
			}
			if advance != ticks {
				t.Errorf("chains advanced %d words, %d ticks acknowledged", advance, ticks)
			}
			if tc.rur != "" {
				stmt, err := w.led.Statement(w.sameAcct, testEpoch.Add(-time.Hour), testEpoch.Add(time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				if len(stmt.Transfers) != 1 || string(stmt.Transfers[0].ResourceUsageRecord) != tc.rur {
					t.Errorf("transfers = %+v, want one carrying %q", stmt.Transfers, tc.rur)
				}
			}
			w.assertConserved()
		})
	}
}

func TestPipelineResubmitIsIdempotent(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The whole batch again, plus one genuinely new claim.
	res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 20, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 2 || res.Accepted != 1 || res.AcceptedTicks != 10 {
		t.Fatalf("resubmit = %+v", res)
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.30") {
		t.Fatalf("payee after resubmit = %s (exactly-once violated)", got)
	}
	w.assertConserved()
}

func TestPipelineRejectsTyped(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	expired := w.issue(w.sameCert, 10, currency.FromG(1), time.Minute)
	w.clock = w.clock.Add(2 * time.Minute) // expire the second chain

	forged := micropay.Claim{Serial: ch.Commitment.Serial, Index: 3, Word: make([]byte, 32)}
	unknown := micropay.Claim{Serial: "ghost", Index: 1, Word: make([]byte, 32)}
	short := micropay.Claim{Serial: ch.Commitment.Serial, Index: 4, Word: []byte("stub")}
	zero := micropay.Claim{Serial: ch.Commitment.Serial, Index: 0, Word: make([]byte, 32)}
	late := claimsFor(t, expired, 1)[0]

	res, err := w.pipe.Submit(w.sameCert, []micropay.Claim{forged, unknown, short, zero, late})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || len(res.Rejected) != 5 {
		t.Fatalf("submit = %+v", res)
	}
	reasons := map[string]string{}
	for _, rej := range res.Rejected {
		reasons[fmt.Sprintf("%s/%d", rej.Serial, rej.Index)] = rej.Reason
	}
	for key, want := range map[string]string{
		fmt.Sprintf("%s/3", ch.Commitment.Serial): "word",
		"ghost/1": "unknown",
		fmt.Sprintf("%s/4", ch.Commitment.Serial):      "word",
		fmt.Sprintf("%s/0", ch.Commitment.Serial):      "index",
		fmt.Sprintf("%s/1", expired.Commitment.Serial): "expired",
	} {
		if !strings.Contains(reasons[key], want) {
			t.Errorf("rejection[%s] = %q, want mention of %q", key, reasons[key], want)
		}
	}
}

func TestPipelineEnforcesPayeeBinding(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 10, currency.FromG(1), time.Hour)
	// A different certificate streaming someone else's chain is refused.
	res, err := w.pipe.Submit("CN=thief", claimsFor(t, ch, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || len(res.Rejected) != 1 || !strings.Contains(res.Rejected[0].Reason, "payable") {
		t.Fatalf("thief submit = %+v", res)
	}
	// Admin relay ("" payee) is allowed; money still goes to the
	// chain's own payee.
	res, err = w.pipe.Submit("", claimsFor(t, ch, 1))
	if err != nil || res.Accepted != 1 {
		t.Fatalf("relay submit = %+v, %v", res, err)
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := w.avail(w.sameAcct); got != currency.FromG(1) {
		t.Fatalf("payee = %s", got)
	}
}

func TestPipelineBackpressure(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	w.pipe.Close()
	spool, err := db.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := micropay.New(micropay.Config{
		Redeemer:    w.red,
		FindAccount: w.led.FindByCertificate,
		Spool:       spool,
		Workers:     -1,
		MaxPending:  2,
		Now:         w.nowFn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	// The bound counts spool rows — one per chain — so three chains in
	// one batch overfill it and three claims on one chain do not.
	ch2 := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	ch3 := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	three := append(append(claimsFor(t, ch, 1), claimsFor(t, ch2, 1)...), claimsFor(t, ch3, 1)...)
	if _, err := pipe.Submit(w.sameCert, three); !errors.Is(err, micropay.ErrOverloaded) {
		t.Fatalf("overfull submit = %v", err)
	}
	if res, err := pipe.Submit(w.sameCert, claimsFor(t, ch, 1, 2, 3)); err != nil || res.Accepted != 3 {
		t.Fatalf("three claims on one chain = %+v, %v", res, err)
	}
	if _, err := pipe.Submit(w.sameCert, claimsFor(t, ch2, 1)); err != nil {
		t.Fatal(err)
	}
	// The bound is checked before intake knows a Submit merges into its
	// chain's pending row: with the queue full, even that is refused.
	if _, err := pipe.Submit(w.sameCert, claimsFor(t, ch, 4)); !errors.Is(err, micropay.ErrOverloaded) {
		t.Fatalf("submit on a full queue = %v", err)
	}
	// A settle frees the capacity.
	if _, err := pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Submit(w.sameCert, claimsFor(t, ch, 4, 5)); err != nil {
		t.Fatalf("submit after drain = %v", err)
	}
}

func TestPipelineCrossShardStream(t *testing.T) {
	w := newWorld(t, 3)
	ch := w.issue(w.crossCert, 100, currency.MustParse("0.01"), time.Hour)
	if _, err := w.pipe.Submit(w.crossCert, claimsFor(t, ch, 50, 80)); err != nil {
		t.Fatal(err)
	}
	st, err := w.pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledTicks != 80 || st.CrossShard == 0 {
		t.Fatalf("drain = %+v", st)
	}
	if got := w.avail(w.crossAcct); got != currency.MustParse("0.80") {
		t.Fatalf("payee = %s", got)
	}
	w.assertConserved()
}

func TestPipelineRecoversSpooledClaims(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 10, 40)); err != nil {
		t.Fatal(err)
	}
	// Die before any settlement; the spool carries the claims over.
	w.reboot()
	st, err := w.pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledTicks != 40 {
		t.Fatalf("recovered drain = %+v", st)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.40") {
		t.Fatalf("payee = %s", got)
	}
	w.assertConserved()
}

func TestPipelineBackgroundWorkersSettle(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 200, currency.MustParse("0.001"), time.Hour)
	w.pipe.Close()
	spool, err := db.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := micropay.New(micropay.Config{
		Redeemer:    w.red,
		FindAccount: w.led.FindByCertificate,
		Spool:       spool,
		Workers:     2,
		Now:         w.nowFn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	for i := 10; i <= 200; i += 10 {
		if _, err := pipe.Submit(w.sameCert, claimsFor(t, ch, i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledTicks != 200 || st.Pending != 0 {
		t.Fatalf("drain = %+v", st)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.2") {
		t.Fatalf("payee = %s", got)
	}
}

// TestSessionsForgetChainsThatCanTakeNoMoreClaims: the per-chain intake
// session is a cache, and a long-running bank must not keep one for
// every serial ever claimed. An exhausted chain's session goes when its
// last word settles, an expired chain's when it is next visited (or
// swept); a replayed claim then reloads the chain row and is refused
// there — never paid twice.
func TestSessionsForgetChainsThatCanTakeNoMoreClaims(t *testing.T) {
	w := newWorld(t, 2)
	type stream struct {
		ch   *payment.Chain
		cert string
	}
	var streams []stream
	for i := 0; i < 6; i++ {
		cert := w.sameCert
		if i%2 == 1 {
			cert = w.crossCert
		}
		ch := w.issue(cert, 10, currency.FromG(1), time.Hour)
		streams = append(streams, stream{ch, cert})
		if _, err := w.pipe.Submit(cert, claimsFor(t, ch, 4, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.pipe.SessionCount(); n != len(streams) {
		t.Fatalf("%d sessions cached at intake, want %d", n, len(streams))
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := w.pipe.SessionCount(); n != 0 {
		t.Errorf("%d sessions survive their chains' exhaustion", n)
	}
	for _, s := range streams {
		res, err := w.pipe.Submit(s.cert, claimsFor(t, s.ch, 10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != 0 || res.Duplicates+len(res.Rejected) != 1 {
			t.Errorf("replayed final claim = %+v, want a duplicate or a rejection", res)
		}
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := w.avail(w.sameAcct); got != currency.FromG(30) {
		t.Errorf("same-shard payee = %s, want 30 G$ (exactly-once violated)", got)
	}
	if got := w.avail(w.crossAcct); got != currency.FromG(30) {
		t.Errorf("cross-shard payee = %s, want 30 G$ (exactly-once violated)", got)
	}
	w.assertConserved()

	// A partially claimed chain is forgotten on the first visit after
	// it expires.
	short := w.issue(w.sameCert, 10, currency.FromG(1), time.Minute)
	if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, short, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.pipe.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := w.pipe.SessionCount(); n != 1 {
		t.Fatalf("%d sessions for one live chain", n)
	}
	w.clock = w.clock.Add(2 * time.Minute)
	res, err := w.pipe.Submit(w.sameCert, claimsFor(t, short, 5))
	if err != nil || len(res.Rejected) != 1 {
		t.Fatalf("claim on expired chain = %+v, %v", res, err)
	}
	if n := w.pipe.SessionCount(); n != 0 {
		t.Errorf("%d sessions survive their chain's expiry", n)
	}

	// Chains nobody visits again are swept once the cache has doubled.
	for i := 0; i < 100; i++ {
		ch := w.issue(w.sameCert, 2, currency.MustParse("0.01"), time.Minute)
		if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 1)); err != nil {
			t.Fatal(err)
		}
	}
	w.clock = w.clock.Add(2 * time.Minute)
	for i := 0; i < 40; i++ {
		ch := w.issue(w.sameCert, 2, currency.MustParse("0.01"), time.Hour)
		if _, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.pipe.SessionCount(); n > 40 {
		t.Errorf("%d sessions cached; the 100 expired ones were never swept", n)
	}
}

// TestStatusDuplicatesCountEveryDuplicateReported: Status().Duplicates
// is the sum of what Submit results reported — spool-key duplicates and
// delta-rule duplicates alike — plus the claims settlement found stale.
func TestStatusDuplicatesCountEveryDuplicateReported(t *testing.T) {
	w := newWorld(t, 1)
	ch := w.issue(w.sameCert, 100, currency.MustParse("0.01"), time.Hour)
	reported := 0
	for _, indices := range [][]int{{10, 20}, {5, 10, 20, 30}, {35}} {
		res, err := w.pipe.Submit(w.sameCert, claimsFor(t, ch, indices...))
		if err != nil {
			t.Fatal(err)
		}
		reported += res.Duplicates
	}
	if reported != 3 {
		t.Fatalf("submit results reported %d duplicates, want 3 (5, 10, 20 under the delta rule)", reported)
	}
	// The synchronous path redeems past every spooled row, so all four
	// claims they stand for (10+20 folded, 30, 35) are stale when the
	// pipeline gets to them.
	if _, err := w.red.Redeem(ch.Commitment.Serial, w.sameAcct, 40, w.word(ch, 40), nil); err != nil {
		t.Fatal(err)
	}
	st, err := w.pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(reported + 4); st.Duplicates != want {
		t.Errorf("Status().Duplicates = %d, want %d (%d reported at intake + 4 stale at settlement)", st.Duplicates, want, reported)
	}
	if got := w.avail(w.sameAcct); got != currency.MustParse("0.40") {
		t.Errorf("payee = %s, want 0.40", got)
	}
	w.assertConserved()
}
