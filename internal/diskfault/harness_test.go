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

func (w *world) submitCharge(id string) error {
	_, err := w.upipe.Submit([]usage.Submission{{
		ID: id, Drawer: w.drawer, Recipient: w.usageTo,
		RUR: encodedRUR(w.t, id), Rates: flatRates(),
	}})
	return err
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

			// Power loss, reboot, invariants.
			d.ClearRules()
			if err := w.reboot(); err != nil {
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

				d.ClearRules()
				if err := w.reboot(); err != nil {
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
		})
	}
}
