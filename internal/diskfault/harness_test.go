package diskfault_test

// The storage-fault harness: the node gridbankd serves from (sharded
// ledger, bank, usage and micropay pipelines — internal/node) booted
// entirely over a diskfault Disk, so
// every durability seam — shard WAL flushes, spool WALs, checkpoint
// writes, the publishing rename, dir-fsync, Compact — can be killed or
// corrupted deterministically, the whole node crashed, and the rebooted
// deployment checked for the three invariants that define storage
// fault tolerance here:
//
//  1. conservation — not a micro-G$ created or destroyed, ever;
//  2. exactly-once — every charge settles once and every chain word
//     credits once, across any number of crashes and resubmissions;
//  3. typed refusal — every error a fault surfaces is either the
//     injected fault itself (maintenance paths) or ErrStorageFailed
//     (commit paths); silence is never an acceptable outcome.
//
// Everything runs from seeds: a failing schedule replays byte-for-byte
// from the seed named in the failure message.

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/micropay"
	"gridbank/internal/node"
	"gridbank/internal/obs"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

var harnessEpoch = time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)

// One VO for every world: the harness drives the ledger and pipelines
// in process, so the bank's identity only has to exist.
var harnessBank, harnessTrust = func() (*pki.Identity, *pki.TrustStore) {
	ca, err := pki.NewCA("Diskfault CA", "VO-X", 24*time.Hour)
	if err != nil {
		panic(err)
	}
	id, err := ca.Issue(pki.IssueOptions{CommonName: "gridbank", Organization: "VO-X", IsServer: true})
	if err != nil {
		panic(err)
	}
	return id, pki.NewTrustStore(ca.Certificate())
}()

const nShards = 2

// shardFile names shard i's journal or checkpoint the way node lays a
// data directory out — for fault rules and at-rest inspection only;
// opening them is node's job.
func shardFile(i int, ext string) string {
	if i == 0 {
		return "/data/ledger" + ext
	}
	return fmt.Sprintf("/data/ledger-%d%s", i, ext)
}

// world is one gridbankd node — sharded ledger, bank, usage and
// micropay pipelines — booted by node.Open with every store on the
// same fault-injected disk.
type world struct {
	t *testing.T
	d *diskfault.Disk

	cfg    node.Config
	n      *node.Node
	stores []*db.Store
	led    *shard.Ledger
	upipe  *usage.Pipeline
	red    *micropay.Redeemer
	mpipe  *micropay.Pipeline

	drawer  accounts.ID
	xferTo  accounts.ID // cross-shard from drawer: transfers exercise 2PC
	usageTo accounts.ID
	payee   accounts.ID
	total   currency.Amount
}

func nowFixed() time.Time { return harnessEpoch }

// boot (re)builds the whole node from the disk: journals reopen (torn
// tails settle), checkpoints verify and fall back, shard.New runs 2PC
// recovery, the pipelines requeue whatever their spools held.
func (w *world) boot() error {
	w.cfg.Obs = obs.NewRegistry() // counters are per process life
	n, err := node.Open(w.cfg)
	if err != nil {
		return err
	}
	w.n, w.led, w.stores = n, n.Ledger(), n.Ledger().Stores()
	w.upipe, w.mpipe, w.red = n.Usage(), n.Micropay(), n.Bank().ChainRedeemer()
	return nil
}

// reboot models power loss + restart: the disk drops everything
// volatile (with a torn tail if so configured) and the node rebuilds
// from what was durable.
func (w *world) reboot() error {
	w.shutdown()
	w.d.Crash()
	return w.boot()
}

// powerLoss is reboot without the graceful half: the disk drops what was
// never synced while the node is still up, so a batch staged but not yet
// carried by a flush (Store.UpdateNoWait — the 2PC outbox and spool
// clean-ups) is lost. The dead generation is closed afterwards, when
// its handles can no longer write anything.
func (w *world) powerLoss() error {
	w.d.Crash()
	w.shutdown()
	return w.boot()
}

// shutdown drops the current process generation. Errors are ignored:
// the process is "dying", and poisoned stores refuse cleanly anyway.
func (w *world) shutdown() { w.n.Close() }

// maintenance is gridbankd's startup checkpoint+compact pass: every
// store checkpoints and its journal compacts. First error wins.
func (w *world) maintenance() error { return w.n.Maintain() }

// newWorld builds a funded deployment (clean disk, no faults armed).
func newWorld(t *testing.T, d *diskfault.Disk) *world {
	t.Helper()
	// Settlement is deterministic: no workers, only SettleOnce/Drain.
	w := &world{t: t, d: d, cfg: node.Config{
		FS: d, Dir: "/data", Shards: nShards, Sync: true,
		Identity: harnessBank, Trust: harnessTrust, Now: nowFixed,
		Usage:    &usage.Config{Workers: -1},
		Micropay: &micropay.Config{Workers: -1},
	}}
	if err := w.boot(); err != nil {
		t.Fatalf("initial boot: %v", err)
	}
	drawer, err := w.led.CreateAccount("CN=alice", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.drawer = drawer.AccountID
	ds := w.led.ShardFor(w.drawer)
	for i := 0; w.xferTo == "" || w.usageTo == ""; i++ {
		if i > 10000 {
			t.Fatal("could not place partner accounts")
		}
		a, err := w.led.CreateAccount(fmt.Sprintf("CN=partner-%d", i), "VO-X", "")
		if err != nil {
			t.Fatal(err)
		}
		if w.led.ShardFor(a.AccountID) != ds {
			if w.xferTo == "" {
				w.xferTo = a.AccountID // cross-shard: transfers run 2PC
			}
		} else if w.usageTo == "" {
			w.usageTo = a.AccountID
		}
	}
	p, err := w.led.CreateAccount("CN=payee", "VO-X", "")
	if err != nil {
		t.Fatal(err)
	}
	w.payee = p.AccountID
	if err := w.led.Deposit(w.drawer, currency.FromG(10000)); err != nil {
		t.Fatal(err)
	}
	if w.total, err = w.led.TotalBalance(); err != nil {
		t.Fatal(err)
	}
	return w
}

// assertConverged checks conservation and full 2PC resolution after a
// reboot. Returned (not fataled) so soak failures can name their seed.
func (w *world) assertConverged() error {
	esc, err := w.led.PendingEscrow()
	if err != nil {
		return err
	}
	if !esc.IsZero() {
		return fmt.Errorf("escrow %v left after recovery", esc)
	}
	total, err := w.led.TotalBalance()
	if err != nil {
		return err
	}
	if total != w.total {
		return fmt.Errorf("conservation violated: %v -> %v", w.total, total)
	}
	return nil
}

// storageTyped reports whether err carries the contract the harness
// accepts from an injected fault: the typed fail-stop error on commit
// paths, or the injected fault itself on maintenance paths.
func storageTyped(err error) bool {
	return errors.Is(err, db.ErrStorageFailed) || errors.Is(err, diskfault.ErrInjected)
}

// chainFixture is one payment chain under test.
type chainFixture struct {
	ch      *payment.Chain
	perWord currency.Amount
	next    int // next index to claim
}

func issueChain(t *testing.T, w *world, tag string, length int) *chainFixture {
	t.Helper()
	perWord := currency.FromG(1)
	ch, err := payment.NewChain(w.drawer, "CN=alice", "CN=payee", length, perWord,
		currency.GridDollar, harnessEpoch, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	total, err := ch.Commitment.Total()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.led.CheckFunds(w.drawer, total); err != nil {
		t.Fatal(err)
	}
	if err := w.red.Put(&micropay.ChainRow{Commitment: ch.Commitment, State: micropay.StateOutstanding}); err != nil {
		t.Fatal(err)
	}
	_ = tag
	return &chainFixture{ch: ch, perWord: perWord, next: 1}
}

func flatRates() *rur.RateCard {
	rates := map[rur.Item]currency.Rate{rur.ItemCPU: currency.PerHour(currency.Scale)}
	for _, item := range rur.AllItems {
		if _, ok := rates[item]; !ok {
			rates[item] = currency.ZeroRate
		}
	}
	return &rur.RateCard{Provider: "CN=provider", Currency: currency.GridDollar, Rates: rates}
}

// encodedRUR builds a record worth exactly 1 G$ under flatRates.
func encodedRUR(t *testing.T, jobID string) []byte {
	t.Helper()
	rec := &rur.Record{
		User:     rur.UserDetails{CertificateName: "CN=alice"},
		Job:      rur.JobDetails{JobID: jobID, Application: "sim", Start: harnessEpoch, End: harnessEpoch.Add(time.Hour)},
		Resource: rur.ResourceDetails{Host: "h", CertificateName: "CN=provider", LocalJobID: "pid"},
	}
	rec.SetQuantity(rur.ItemCPU, 3600)
	raw, err := rur.Encode(rec, rur.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func (w *world) submitCharge(id string) error { return w.submitChargeTo(id, w.usageTo) }

func (w *world) submitChargeTo(id string, recipient accounts.ID) error {
	_, err := w.upipe.Submit([]usage.Submission{{
		ID: id, Drawer: w.drawer, Recipient: recipient,
		RUR: encodedRUR(w.t, id), Rates: flatRates(),
	}})
	return err
}

// claim streams the chain word at index to the micropay pipeline.
func (w *world) claim(c *chainFixture, index int) error {
	word, err := c.ch.Word(index)
	if err != nil {
		w.t.Fatal(err)
	}
	_, err = w.mpipe.Submit("CN=payee", []micropay.Claim{{Serial: c.ch.Commitment.Serial, Index: index, Word: word}})
	return err
}

// books renders every account's balances and state, for "the same books
// before and after" comparisons.
func (w *world) books() string {
	w.t.Helper()
	accts, err := w.led.Accounts()
	if err != nil {
		w.t.Fatal(err)
	}
	var b strings.Builder
	for _, a := range accts {
		fmt.Fprintf(&b, "%s avail=%s locked=%s closed=%v\n", a.AccountID, a.AvailableBalance, a.LockedBalance, a.Closed)
	}
	return b.String()
}

// TestEveryDurabilityBoundaryFailStop is the deterministic matrix: one
// scripted fault per durability seam, traffic driven into it, then a
// crash and reboot with the three invariants checked. WAL seams must
// surface ErrStorageFailed and poison only their own component;
// checkpoint seams must fail the maintenance pass without poisoning
// the live store.
func TestEveryDurabilityBoundaryFailStop(t *testing.T) {
	cases := []struct {
		name string
		rule diskfault.Rule
		// wal: the fault lands on a commit path and must produce at
		// least one ErrStorageFailed. Otherwise it lands on the
		// checkpoint path: maintenance fails, stores stay healthy.
		wal bool
	}{
		{"shard0-wal-write-enospc", diskfault.Rule{PathSuffix: "ledger.wal", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace, Sticky: true}, true},
		{"shard0-wal-fsync", diskfault.Rule{PathSuffix: "ledger.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"shard1-wal-fsync", diskfault.Rule{PathSuffix: "ledger-1.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"usage-spool-write-short", diskfault.Rule{PathSuffix: "usage.wal", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace, ShortBytes: 7, Sticky: true}, true},
		{"usage-spool-fsync", diskfault.Rule{PathSuffix: "usage.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"micropay-spool-fsync", diskfault.Rule{PathSuffix: "micropay.wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}, true},
		{"checkpoint-write", diskfault.Rule{PathSuffix: "ledger.ckpt.tmp", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace}, false},
		{"checkpoint-fsync", diskfault.Rule{PathSuffix: "ledger.ckpt.tmp", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO}, false},
		{"checkpoint-rename", diskfault.Rule{PathSuffix: "ledger.ckpt.tmp", Op: diskfault.OpRename, Nth: 1, Err: diskfault.ErrIO}, false},
		{"checkpoint-dir-fsync", diskfault.Rule{PathSuffix: "/data", Op: diskfault.OpSyncDir, Nth: 1, Err: diskfault.ErrIO}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diskfault.New(diskfault.Config{Seed: 0xD15C, TornCrash: true})
			w := newWorld(t, d)
			chain := issueChain(t, w, "c", 8)

			// Clean warm-up traffic: an acked prefix the reboot must keep.
			if _, err := w.led.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := w.submitCharge("warm-0"); err != nil {
				t.Fatal(err)
			}
			if _, err := w.upipe.SettleOnce(); err != nil {
				t.Fatal(err)
			}
			word1, err := chain.ch.Word(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.mpipe.Submit("CN=payee", []micropay.Claim{{Serial: chain.ch.Commitment.Serial, Index: 1, Word: word1}}); err != nil {
				t.Fatal(err)
			}
			if _, err := w.mpipe.SettleOnce(); err != nil {
				t.Fatal(err)
			}
			chain.next = 2

			d.AddRule(tc.rule)

			// Drive every kind of traffic into the armed fault.
			var faultErrs []error
			note := func(err error) {
				if err == nil {
					return
				}
				if !storageTyped(err) {
					t.Fatalf("fault surfaced untyped: %v", err)
				}
				faultErrs = append(faultErrs, err)
			}
			_, err = w.led.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{})
			note(err)
			note(w.submitCharge("doomed-0"))
			_, err = w.upipe.SettleOnce()
			note(err)
			word2, err := chain.ch.Word(2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = w.mpipe.Submit("CN=payee", []micropay.Claim{{Serial: chain.ch.Commitment.Serial, Index: 2, Word: word2}})
			note(err)
			_, err = w.mpipe.SettleOnce()
			note(err)
			mErr := w.maintenance()
			if tc.wal {
				if len(faultErrs) == 0 && mErr == nil {
					t.Fatal("no operation surfaced the injected WAL fault")
				}
				if mErr != nil && !storageTyped(mErr) {
					t.Fatalf("maintenance error untyped: %v", mErr)
				}
			} else {
				if mErr == nil {
					t.Fatal("maintenance should fail under checkpoint fault")
				}
				if !errors.Is(mErr, diskfault.ErrInjected) {
					t.Fatalf("maintenance error = %v; want the injected fault", mErr)
				}
				// A checkpoint failure must NOT poison the live store.
				if _, err := w.led.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{}); err != nil {
					t.Fatalf("store poisoned by checkpoint failure: %v", err)
				}
			}

			// Power loss with the node still up — so whatever spool
			// clean-up was staged behind the fault, or behind no flush at
			// all, is lost or torn with it — then reboot and invariants.
			d.ClearRules()
			if err := w.powerLoss(); err != nil {
				t.Fatalf("reboot: %v", err)
			}
			if err := w.assertConverged(); err != nil {
				t.Fatal(err)
			}
			// Exactly-once: resubmit everything ever submitted, drain, and
			// check the recipient saw each charge precisely once.
			for _, id := range []string{"warm-0", "doomed-0"} {
				if err := w.submitCharge(id); err != nil {
					t.Fatalf("resubmit %s: %v", id, err)
				}
			}
			if _, err := w.upipe.Drain(5 * time.Second); err != nil {
				t.Fatalf("usage drain: %v", err)
			}
			a, err := w.led.Details(w.usageTo)
			if err != nil {
				t.Fatal(err)
			}
			if a.AvailableBalance != currency.FromG(2) {
				t.Fatalf("usage recipient = %s; want exactly 2 G$ (one per distinct charge)", a.AvailableBalance)
			}
			if _, err := w.mpipe.Drain(5 * time.Second); err != nil {
				t.Fatalf("micropay drain: %v", err)
			}
			row, err := w.red.Get(chain.ch.Commitment.Serial)
			if err != nil {
				t.Fatal(err)
			}
			pa, err := w.led.Details(w.payee)
			if err != nil {
				t.Fatal(err)
			}
			if want := currency.FromMicro(chain.perWord.Micro() * int64(row.RedeemedIndex)); pa.AvailableBalance != want {
				t.Fatalf("payee = %s; want %s (perWord × redeemed index %d: each word exactly once)",
					pa.AvailableBalance, want, row.RedeemedIndex)
			}
			if err := w.assertConverged(); err != nil {
				t.Fatal(err)
			}
			us := w.upipe.Status()
			ms := w.mpipe.Status()
			if us.Failed != 0 || ms.Failed != 0 {
				t.Fatalf("storage faults parked terminal: usage %d, micropay %d", us.Failed, ms.Failed)
			}
			if us.Pending != 0 || ms.Pending != 0 {
				t.Fatalf("rows left pending: usage %d, micropay %d", us.Pending, ms.Pending)
			}
		})
	}
}

// TestUnawaitedOutboxCleanupAtEveryBoundary follows the one record a
// cross-shard transfer does not wait for — the outbox-row delete staged
// on the debit shard's WAL — through everything that can happen to it
// before the next group flush makes it durable: power loss (recovery
// deletes the row again, the credit is not repeated), an fsync failure
// on the flush that carries it (the store fail-stops, typed), and the
// checkpoint + compact pass (neither strands it).
func TestUnawaitedOutboxCleanupAtEveryBoundary(t *testing.T) {
	acked := func(t *testing.T) (*diskfault.Disk, *world) {
		t.Helper()
		d := diskfault.New(diskfault.Config{Seed: 0xC1EA, TornCrash: true})
		w := newWorld(t, d)
		if _, err := w.led.Transfer(w.drawer, w.xferTo, currency.FromG(3), accounts.TransferOptions{}); err != nil {
			t.Fatal(err)
		}
		return d, w
	}
	settled := func(t *testing.T, w *world) {
		t.Helper()
		if err := w.assertConverged(); err != nil {
			t.Fatal(err)
		}
		for i, st := range w.stores {
			if n, err := st.Count("pc_transfers"); err != nil || n != 0 {
				t.Fatalf("shard %d holds %d outbox rows after recovery (%v)", i, n, err)
			}
		}
		if a, err := w.led.Details(w.xferTo); err != nil || a.AvailableBalance != currency.FromG(3) {
			t.Fatalf("recipient = %+v, %v; want the acked 3 G$ exactly once", a, err)
		}
	}

	t.Run("power loss before any flush carries it", func(t *testing.T) {
		d, w := acked(t)
		// No shutdown first: Close would flush the staged record.
		d.Crash()
		wal := string(d.Durable(shardFile(w.led.ShardFor(w.drawer), ".wal")))
		if !strings.Contains(wal, `"table":"pc_transfers"`) || strings.Contains(wal, `"op":"del","table":"pc_transfers"`) {
			t.Fatal("the durable journal should hold the outbox row and not yet its delete")
		}
		if err := w.boot(); err != nil {
			t.Fatal(err)
		}
		if n, err := w.stores[w.led.ShardFor(w.drawer)].Count("pc_transfers"); err != nil || n != 0 {
			t.Fatalf("outbox rows after recovery: %d, %v", n, err)
		}
		settled(t, w)
	})
	t.Run("fsync failure on the flush that carries it", func(t *testing.T) {
		d, w := acked(t)
		debit := w.led.ShardFor(w.drawer)
		d.AddRule(diskfault.Rule{PathSuffix: shardFile(debit, ".wal"), Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO})
		if err := w.led.Deposit(w.drawer, currency.FromG(1)); !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("commit leading the failed flush = %v, want ErrStorageFailed", err)
		}
		if _, err := w.led.Details(w.drawer); !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("next operation on the shard = %v, want ErrStorageFailed", err)
		}
		d.ClearRules()
		if err := w.reboot(); err != nil {
			t.Fatal(err)
		}
		settled(t, w) // the refused deposit is not in the total
	})
	t.Run("checkpoint and compact with it still staged", func(t *testing.T) {
		_, w := acked(t)
		if err := w.maintenance(); err != nil {
			t.Fatalf("maintenance with an unawaited record staged: %v", err)
		}
		if err := w.reboot(); err != nil {
			t.Fatal(err)
		}
		settled(t, w)
	})
}

// TestLostSpoolCleanupIsRedoneExactlyOnce follows the other record
// nobody waits for — the spool clean-up Batch.Finish stages after a
// settlement — through the window the in-memory crash worlds cannot
// see: the payment is durable on the ledger, Finish has returned, and
// power fails before any spool flush carries it. The row must come back
// pending, be recognised as paid from the ledger's own evidence, and
// leave again — same books, nothing parked, nothing counted as a
// duplicate submission, one clean-up redone — whatever happened to the
// chain or the recipient in between, and also when the flush that was
// to carry it failed and fail-stopped the spool first.
func TestLostSpoolCleanupIsRedoneExactlyOnce(t *testing.T) {
	type unit func(w *world, k int) error // spools the k-th unit of work
	charge := func(to func(*world) accounts.ID) unit {
		return func(w *world, k int) error { return w.submitChargeTo(fmt.Sprintf("lost-%d", k), to(w)) }
	}
	sameShard := func(w *world) accounts.ID { return w.usageTo }
	crossShard := func(w *world) accounts.ID { return w.xferTo }
	// claimFrom claims words first, first+1, ... of a chain issued on
	// first use; serial names that chain afterwards.
	claimFrom := func(length, first int) (claim unit, serial func() string) {
		var c *chainFixture
		return func(w *world, k int) error {
			if c == nil {
				c = issueChain(w.t, w, "lost", length)
			}
			return w.claim(c, first+k)
		}, func() string { return c.ch.Commitment.Serial }
	}
	first := func(u unit, _ func() string) unit { return u }
	releasedClaim, releasedSerial := claimFrom(8, 3)
	cases := []struct {
		name   string
		pipe   string
		submit unit
		// between changes the ledger after the settlement and before the
		// power loss.
		between func(w *world) error
		// poison fails the flush that would have carried the clean-up.
		poison bool
	}{
		{name: "usage same-shard charge", pipe: "usage", submit: charge(sameShard)},
		{name: "usage cross-shard charge", pipe: "usage", submit: charge(crossShard)},
		{name: "usage recipient closed since", pipe: "usage", submit: charge(sameShard),
			between: func(w *world) error { return w.led.CloseAccount(w.usageTo, w.drawer) }},
		{name: "usage carrying flush fails", pipe: "usage", submit: charge(sameShard), poison: true},
		{name: "micropay chain exhausted by the lost batch", pipe: "micropay", submit: first(claimFrom(4, 4))},
		{name: "micropay chain released since", pipe: "micropay", submit: releasedClaim,
			between: func(w *world) error {
				_, err := w.red.Release(releasedSerial(), nil)
				return err
			}},
		{name: "micropay payee closed since", pipe: "micropay", submit: first(claimFrom(8, 3)),
			between: func(w *world) error { return w.led.CloseAccount(w.payee, w.usageTo) }},
		{name: "micropay carrying flush fails", pipe: "micropay", submit: first(claimFrom(8, 3)), poison: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// No torn tails: the unsynced clean-up is lost whole.
			d := diskfault.New(diskfault.Config{Seed: 0x10E5})
			w := newWorld(t, d)
			status := func() (pending, failed int, duplicates, paid uint64) {
				if tc.pipe == "usage" {
					st := w.upipe.Status()
					return st.Pending, st.Failed, st.Duplicates, st.Settled
				}
				st := w.mpipe.Status()
				return st.Pending, st.Failed, st.Duplicates, st.SettledTicks
			}
			settleOnce := w.upipe.SettleOnce
			drain := func() error { _, err := w.upipe.Drain(5 * time.Second); return err }
			if tc.pipe == "micropay" {
				settleOnce = w.mpipe.SettleOnce
				drain = func() error { _, err := w.mpipe.Drain(5 * time.Second); return err }
			}

			if err := tc.submit(w, 0); err != nil {
				t.Fatal(err)
			}
			if n, err := settleOnce(); n != 1 || err != nil {
				t.Fatalf("settle = %d, %v", n, err)
			}
			if pending, _, _, paid := status(); pending != 0 || paid == 0 {
				t.Fatalf("before the crash: pending %d, paid %d", pending, paid)
			}
			if tc.between != nil {
				if err := tc.between(w); err != nil {
					t.Fatal(err)
				}
			}
			if tc.poison {
				d.AddRule(diskfault.Rule{PathSuffix: tc.pipe + ".wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO})
				for k := 1; k <= 2; k++ { // the flush's leader, then a caller of the poisoned spool
					if err := tc.submit(w, k); !errors.Is(err, db.ErrStorageFailed) {
						t.Fatalf("submit %d = %v, want ErrStorageFailed", k, err)
					}
				}
				d.ClearRules()
			}
			before := w.books()

			if err := w.powerLoss(); err != nil {
				t.Fatal(err)
			}
			if pending, _, _, _ := status(); pending != 1 {
				t.Fatalf("%d rows pending after power loss, want the one whose clean-up was lost", pending)
			}
			if err := drain(); err != nil {
				t.Fatal(err)
			}
			pending, failed, duplicates, paid := status()
			if pending != 0 || failed != 0 || paid != 0 {
				t.Fatalf("after the redo: pending %d, failed %d, paid again %d", pending, failed, paid)
			}
			// Usage: a redo is not a duplicate submission. Micropay: the
			// delta rule counts every stale claim, this one included.
			if want := map[string]uint64{"usage": 0, "micropay": 1}[tc.pipe]; duplicates != want {
				t.Fatalf("duplicates = %d, want %d", duplicates, want)
			}
			if got := w.cfg.Obs.Counter(tc.pipe + ".cleanup_redone").Value(); got != 1 {
				t.Fatalf("%s.cleanup_redone = %d, want 1", tc.pipe, got)
			}
			if after := w.books(); after != before {
				t.Fatalf("books moved across the redo:\n%s-- after --\n%s", before, after)
			}
			if err := w.assertConverged(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHarnessTypedRefusalOnUnrecoverableCorruption: when a shard's only
// checkpoint generation rots after its journal was compacted, the node
// must refuse to boot with ErrNoIntactHistory — never serve silently
// rolled-back balances.
func TestHarnessTypedRefusalOnUnrecoverableCorruption(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 77})
	w := newWorld(t, d)
	if err := w.maintenance(); err != nil {
		t.Fatal(err)
	}
	// Second maintenance pass compacts past the only intact span the
	// first checkpoint's generation could bridge.
	if _, err := w.led.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := w.maintenance(); err != nil {
		t.Fatal(err)
	}
	w.shutdown()
	d.Crash()
	if !d.Corrupt(shardFile(0, ".ckpt"), 40, 0xFF) {
		t.Fatal("corrupt missed")
	}
	err := w.boot()
	if !errors.Is(err, db.ErrNoIntactHistory) {
		t.Fatalf("boot = %v; want ErrNoIntactHistory", err)
	}
}

// soakSeeds returns the seed list: GRIDBANK_DISKFAULT_SEEDS (comma
// separated) or a small default for the ordinary test run. CI's soak
// step passes a wider list.
func soakSeeds(t *testing.T) []uint64 {
	env := os.Getenv("GRIDBANK_DISKFAULT_SEEDS")
	if env == "" {
		return []uint64{1, 2, 3}
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("GRIDBANK_DISKFAULT_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestDiskfaultSeededSoak runs randomized rounds per seed: arm a
// seeded-random fault, drive mixed traffic (2PC transfers, usage
// settlement, micropay redemption, checkpoint+compact maintenance),
// crash with torn tails, reboot, and assert convergence — then a final
// clean phase proves exactly-once end-to-end. Every failure names its
// seed; GRIDBANK_DISKFAULT_SEEDS replays or widens the schedule.
func TestDiskfaultSeededSoak(t *testing.T) {
	targets := []struct {
		suffix string
		op     diskfault.Op
	}{
		{"ledger.wal", diskfault.OpWrite},
		{"ledger.wal", diskfault.OpSync},
		{"ledger-1.wal", diskfault.OpSync},
		{"usage.wal", diskfault.OpSync},
		{"usage.wal", diskfault.OpWrite},
		{"micropay.wal", diskfault.OpSync},
		{"ledger.ckpt.tmp", diskfault.OpWrite},
		{"ledger-1.ckpt.tmp", diskfault.OpSync},
		{"usage.ckpt.tmp", diskfault.OpRename},
		{"/data", diskfault.OpSyncDir},
	}
	for _, seed := range soakSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
			}
			d := diskfault.New(diskfault.Config{Seed: seed, TornCrash: true})
			w := newWorld(t, d)
			chains := []*chainFixture{issueChain(t, w, "a", 12), issueChain(t, w, "b", 12)}
			var chargeIDs []string

			const rounds = 4
			for round := 0; round < rounds; round++ {
				rng := splitmix(seed*1000003 + uint64(round))
				tgt := targets[rng%uint64(len(targets))]
				rule := diskfault.Rule{
					PathSuffix: tgt.suffix,
					Op:         tgt.op,
					Nth:        1 + int(splitmix(rng)%4),
					Err:        diskfault.ErrIO,
					Sticky:     splitmix(rng+1)%2 == 0,
				}
				if tgt.op == diskfault.OpWrite {
					rule.Err = diskfault.ErrNoSpace
					rule.ShortBytes = int(splitmix(rng+2) % 16)
				}
				d.AddRule(rule)

				note := func(err error) {
					if err != nil && !storageTyped(err) {
						fail("round %d (%s/%s): untyped fault error: %v", round, tgt.suffix, tgt.op, err)
					}
				}
				for k := 0; k < 3; k++ {
					_, err := w.led.Transfer(w.drawer, w.xferTo, currency.FromG(1), accounts.TransferOptions{})
					note(err)
				}
				for k := 0; k < 3; k++ {
					id := fmt.Sprintf("charge-%d-%d-%d", seed, round, k)
					chargeIDs = append(chargeIDs, id)
					note(w.submitCharge(id))
				}
				_, err := w.upipe.SettleOnce()
				note(err)
				for _, c := range chains {
					if c.next > c.ch.Commitment.Length {
						continue
					}
					word, werr := c.ch.Word(c.next)
					if werr != nil {
						fail("word: %v", werr)
					}
					_, err := w.mpipe.Submit("CN=payee", []micropay.Claim{{Serial: c.ch.Commitment.Serial, Index: c.next, Word: word}})
					note(err)
					c.next++
				}
				_, err = w.mpipe.SettleOnce()
				note(err)
				note(w.maintenance())

				// Half the rounds end in a clean stop followed by power
				// loss, half in power loss with the node still up: only
				// the second loses the spool and outbox clean-ups staged
				// since the last flush.
				d.ClearRules()
				restart := w.reboot
				if splitmix(rng+3)%2 == 0 {
					restart = w.powerLoss
				}
				if err := restart(); err != nil {
					fail("round %d reboot: %v", round, err)
				}
				if err := w.assertConverged(); err != nil {
					fail("round %d: %v", round, err)
				}
			}

			// Final clean phase: resubmit every charge ever issued (the
			// idempotency key dedupes survivors), drain both pipelines, and
			// verify exactly-once by balance arithmetic.
			for _, id := range chargeIDs {
				if err := w.submitCharge(id); err != nil {
					fail("final resubmit %s: %v", id, err)
				}
			}
			if _, err := w.upipe.Drain(10 * time.Second); err != nil {
				fail("usage drain: %v", err)
			}
			a, err := w.led.Details(w.usageTo)
			if err != nil {
				fail("details: %v", err)
			}
			if want := currency.FromG(int64(len(chargeIDs))); a.AvailableBalance != want {
				fail("usage recipient %s; want %s — a charge settled zero or multiple times", a.AvailableBalance, want)
			}
			if _, err := w.mpipe.Drain(10 * time.Second); err != nil {
				fail("micropay drain: %v", err)
			}
			var payeeWant int64
			for _, c := range chains {
				row, err := w.red.Get(c.ch.Commitment.Serial)
				if err != nil {
					fail("chain row: %v", err)
				}
				payeeWant += c.perWord.Micro() * int64(row.RedeemedIndex)
			}
			pa, err := w.led.Details(w.payee)
			if err != nil {
				fail("details: %v", err)
			}
			if pa.AvailableBalance != currency.FromMicro(payeeWant) {
				fail("payee %s; want %s — a chain word credited zero or multiple times",
					pa.AvailableBalance, currency.FromMicro(payeeWant))
			}
			if err := w.assertConverged(); err != nil {
				fail("final: %v", err)
			}
			us, ms := w.upipe.Status(), w.mpipe.Status()
			if us.Failed != 0 || ms.Failed != 0 {
				fail("storage faults parked terminal: usage %d, micropay %d", us.Failed, ms.Failed)
			}
			if us.Pending != 0 || ms.Pending != 0 {
				fail("rows left pending: usage %d, micropay %d", us.Pending, ms.Pending)
			}
		})
	}
}
