package db_test

// Storage fault-tolerance tests: the db layer driven over the
// diskfault in-memory disk, so every durability boundary — group-commit
// write, fsync, checkpoint write, the publishing rename, dir-fsync,
// Compact — can be killed or corrupted deterministically.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/wire"
)

const (
	walPath  = "/data/ledger.wal"
	ckptPath = "/data/ledger.ckpt"
)

// bootFS opens the journal and store from the disk, simtest-boot style.
func bootFS(t *testing.T, d *diskfault.Disk, codec string) (*db.Store, *db.BootInfo, db.Journal) {
	t.Helper()
	j, err := db.OpenFileJournalCodecFS(d, walPath, true, codec)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	s, info, err := db.OpenWithCheckpointFS(d, ckptPath, j)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s, info, j
}

func putKey(t *testing.T, s *db.Store, k, v string) {
	t.Helper()
	if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", k, []byte(v)) }); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

func wantKey(t *testing.T, s *db.Store, k, v string) {
	t.Helper()
	got, err := s.Get("kv", k)
	if err != nil || string(got) != v {
		t.Fatalf("get %s = %q, %v; want %q", k, got, err, v)
	}
}

func wantAbsent(t *testing.T, s *db.Store, k string) {
	t.Helper()
	if got, err := s.Get("kv", k); err == nil {
		t.Fatalf("get %s = %q; want absent", k, got)
	}
}

// TestENOSPCMidGroupCommitEveryBoundary injects a real ENOSPC (or I/O
// error) at each write/fsync boundary of the group-commit path while
// concurrent committers race, and asserts the full fail-stop contract:
// every committer in (or after) the failed group gets ErrStorageFailed,
// no partial batch is ever acked, the store refuses all further
// commits, and a reboot recovers exactly the acked prefix — nothing
// more, nothing less.
func TestENOSPCMidGroupCommitEveryBoundary(t *testing.T) {
	boundaries := []struct {
		name string
		rule diskfault.Rule
	}{
		{"write-enospc", diskfault.Rule{PathSuffix: ".wal", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace, Sticky: true}},
		{"write-short-enospc", diskfault.Rule{PathSuffix: ".wal", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace, ShortBytes: 5, Sticky: true}},
		{"fsync-eio", diskfault.Rule{PathSuffix: ".wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO, Sticky: true}},
	}
	for _, b := range boundaries {
		t.Run(b.name, func(t *testing.T) {
			d := diskfault.New(diskfault.Config{Seed: 11})
			s, _, _ := bootFS(t, d, wire.CodecJSON)
			if err := s.CreateTable("kv"); err != nil {
				t.Fatal(err)
			}
			// A known acked prefix before the fault arms.
			putKey(t, s, "acked-1", "v1")
			putKey(t, s, "acked-2", "v2")
			d.AddRule(b.rule)

			const writers = 8
			errs := make([]error, writers)
			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					k := fmt.Sprintf("doomed-%d", i)
					errs[i] = s.Update(func(tx *db.Tx) error { return tx.Put("kv", k, []byte("x")) })
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil {
					t.Fatalf("writer %d was acked through a failed flush", i)
				}
				if !errors.Is(err, db.ErrStorageFailed) {
					t.Fatalf("writer %d: %v; want ErrStorageFailed", i, err)
				}
			}
			// The poison is sticky: even a brand-new commit is refused.
			if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "late", []byte("x")) }); !errors.Is(err, db.ErrStorageFailed) {
				t.Fatalf("post-failure commit: %v; want ErrStorageFailed", err)
			}

			// Reboot: exactly the acked prefix survives.
			d.Crash()
			d.ClearRules()
			s2, _, _ := bootFS(t, d, wire.CodecJSON)
			wantKey(t, s2, "acked-1", "v1")
			wantKey(t, s2, "acked-2", "v2")
			for i := 0; i < writers; i++ {
				wantAbsent(t, s2, fmt.Sprintf("doomed-%d", i))
			}
			wantAbsent(t, s2, "late")
		})
	}
}

// TestStickyFsyncAcksThenLosesPreFixShape pins the failure the fail-stop
// discipline exists to prevent. An anti-pattern journal — retry the
// fsync after it fails, treat the retried success as durability — acks
// a write that the kernel has already dropped (fsyncgate: the failed
// fsync marked the pages clean, so the retry has nothing to write and
// "succeeds"). The acked write vanishes on reboot. The fixed journal
// under the same fault class refuses the commit instead, and reboot
// recovers exactly the acked prefix.
func TestStickyFsyncAcksThenLosesPreFixShape(t *testing.T) {
	faultRule := diskfault.Rule{PathSuffix: ".wal", Op: diskfault.OpSync, Nth: 2, Err: diskfault.ErrIO}

	t.Run("pre-fix-retry-acks-then-loses", func(t *testing.T) {
		d := diskfault.New(diskfault.Config{Seed: 3})
		d.AddRule(faultRule)
		f, err := d.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		writeLine := func(line string) error {
			if _, err := f.Write([]byte(line + "\n")); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				// The anti-pattern: retry and trust the second answer.
				return f.Sync()
			}
			return nil
		}
		if err := writeLine(`entry-1`); err != nil {
			t.Fatal(err)
		}
		// Sync #2 fails, the retry (#3) "succeeds" — caller acks.
		if err := writeLine(`entry-2`); err != nil {
			t.Fatalf("retried fsync should falsely succeed, got %v", err)
		}
		d.Crash()
		g, err := d.OpenFile(walPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(g)
		if bytes.Contains(b, []byte("entry-2")) {
			t.Fatal("lost pages survived the crash — diskfault model broken")
		}
		if !bytes.Contains(b, []byte("entry-1")) {
			t.Fatalf("durable prefix missing: %q", b)
		}
		// entry-2 was acked and is gone: the acks-then-loses shape.
	})

	t.Run("fixed-fail-stop-never-acks", func(t *testing.T) {
		d := diskfault.New(diskfault.Config{Seed: 3})
		s, _, _ := bootFS(t, d, wire.CodecJSON)
		if err := s.CreateTable("kv"); err != nil {
			t.Fatal(err)
		}
		putKey(t, s, "acked", "v")
		// The next fsync fails, matching the failing sync above.
		d.AddRule(diskfault.Rule{PathSuffix: ".wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO})
		err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "doomed", []byte("x")) })
		if !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("commit through failed fsync: %v; want ErrStorageFailed", err)
		}
		// No re-Sync "recovery": the store stays refused.
		if err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "late", []byte("x")) }); !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("post-failure commit: %v; want ErrStorageFailed", err)
		}
		d.Crash()
		d.ClearRules()
		s2, _, _ := bootFS(t, d, wire.CodecJSON)
		wantKey(t, s2, "acked", "v")
		wantAbsent(t, s2, "doomed")
	})
}

// --- Checkpoint fallback chain, one test per step (satellite) ---

// Step 1 of the chain is every existing happy-path checkpoint test.

// TestBootFallsBackToPreviousGenerationOnCorruptNewest is step 2:
// newest generation rotted at rest, journal intact since the previous
// generation → boot restores <path>.ckpt.1 and replays the longer tail.
func TestBootFallsBackToPreviousGenerationOnCorruptNewest(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 5})
	s, _, _ := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil { // becomes .1
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil { // gen 0
		t.Fatal(err)
	}
	putKey(t, s, "w3", "c")

	if !d.Corrupt(ckptPath, 40, 0xFF) { // inside the JSON body
		t.Fatal("corrupt missed")
	}
	d.Crash()
	s2, info, _ := bootFS(t, d, wire.CodecJSON)
	if info.Generation != 1 {
		t.Fatalf("booted from generation %d (%s); want 1", info.Generation, info.Path)
	}
	if len(info.Fallbacks) == 0 || !errorStringContains(info.Fallbacks[0], "checkpoint corrupt") {
		t.Fatalf("fallbacks = %v; want corruption recorded", info.Fallbacks)
	}
	wantKey(t, s2, "w1", "a")
	wantKey(t, s2, "w2", "b")
	wantKey(t, s2, "w3", "c")
}

// TestBootFallbackInPreCompactCrashWindow is the same step under the
// exact shape the satellite names: checkpoint B was written and the
// crash landed before the journal was compacted, then B rots. The
// journal still reaches back to generation .1, so boot bridges the gap.
func TestBootFallbackInPreCompactCrashWindow(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 6})
	s, _, j := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := j.(db.CompactableJournal).Compact(); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	// Crash here — before the post-checkpoint Compact. Then the newest
	// generation rots at rest.
	d.Crash()
	if !d.Corrupt(ckptPath, 40, 0xFF) {
		t.Fatal("corrupt missed")
	}
	s2, info, _ := bootFS(t, d, wire.CodecJSON)
	if info.Generation != 1 {
		t.Fatalf("booted from generation %d; want 1 (fallbacks %v)", info.Generation, info.Fallbacks)
	}
	wantKey(t, s2, "w1", "a")
	wantKey(t, s2, "w2", "b")
}

// TestBootMissingNewestUsesRotatedGeneration is the rotation-crash
// window: the crash hit between "rotate old to .1" and "rename new into
// place", leaving no <path>.ckpt at all. The rotated generation plus
// the journal cover everything.
func TestBootMissingNewestUsesRotatedGeneration(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 7})
	s, _, _ := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	// Simulate the mid-rotation crash shape directly.
	if err := d.Rename(ckptPath, ckptPath+".1"); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir(filepath.Dir(ckptPath)); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	s2, info, _ := bootFS(t, d, wire.CodecJSON)
	if info.Generation != 1 {
		t.Fatalf("booted from generation %d; want 1", info.Generation)
	}
	wantKey(t, s2, "w1", "a")
	wantKey(t, s2, "w2", "b")
}

// TestBootAllGenerationsCorruptFullJournalReplays is step 3: every
// checkpoint generation fails verification, but the journal was never
// compacted — full history replay reconstructs the exact state.
func TestBootAllGenerationsCorruptFullJournalReplays(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 8})
	s, _, _ := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w3", "c")
	d.Crash()
	for _, p := range []string{ckptPath, ckptPath + ".1"} {
		if !d.Corrupt(p, 40, 0xFF) {
			t.Fatalf("corrupt missed on %s", p)
		}
	}
	s2, info, _ := bootFS(t, d, wire.CodecJSON)
	if info.Generation != -1 {
		t.Fatalf("booted from generation %d; want -1 (plain replay)", info.Generation)
	}
	if len(info.Fallbacks) != 2 {
		t.Fatalf("fallbacks = %v; want both generations recorded", info.Fallbacks)
	}
	wantKey(t, s2, "w1", "a")
	wantKey(t, s2, "w2", "b")
	wantKey(t, s2, "w3", "c")
}

// TestBootRefusesWhenNoIntactHistory is step 4, the honest refusal: the
// newest generation is corrupt and the journal was compacted past the
// older one, so no intact source covers the lost span. Silently booting
// either would roll back acked writes; the store must refuse with the
// typed error instead.
func TestBootRefusesWhenNoIntactHistory(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 9})
	s, _, j := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := j.(db.CompactableJournal).Compact(); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	if err := j.(db.CompactableJournal).Compact(); err != nil {
		t.Fatal(err)
	}
	// At-rest rot on the only generation that covers w2.
	d.Crash()
	if !d.Corrupt(ckptPath, 40, 0xFF) {
		t.Fatal("corrupt missed")
	}
	jj, err := db.OpenFileJournalCodecFS(d, walPath, true, wire.CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = db.OpenWithCheckpointFS(d, ckptPath, jj)
	if !errors.Is(err, db.ErrNoIntactHistory) {
		t.Fatalf("boot = %v; want ErrNoIntactHistory", err)
	}
	if !errorStringContains(fmt.Sprint(err), "gbadmin fsck") {
		t.Fatalf("refusal should point the operator at fsck: %v", err)
	}
}

// TestCompactDurableAcrossCrash (satellite): the truncation and fresh
// generation marker written by Compact must survive a crash immediately
// after — a resurrected pre-checkpoint tail would read as mid-file
// corruption (bin1) or double-applied history bounds (JSON) on reboot.
func TestCompactDurableAcrossCrash(t *testing.T) {
	for _, codec := range []string{wire.CodecJSON, wire.CodecBin1} {
		t.Run(codec, func(t *testing.T) {
			d := diskfault.New(diskfault.Config{Seed: 10, TornCrash: true})
			s, _, j := bootFS(t, d, codec)
			if err := s.CreateTable("kv"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				putKey(t, s, fmt.Sprintf("k%d", i), "v")
			}
			if _, err := s.CheckpointFS(d, ckptPath); err != nil {
				t.Fatal(err)
			}
			if err := j.(db.CompactableJournal).Compact(); err != nil {
				t.Fatal(err)
			}
			putKey(t, s, "post-compact", "pv")
			d.Crash() // immediately after compact + one committed write
			s2, _, _ := bootFS(t, d, codec)
			for i := 0; i < 20; i++ {
				wantKey(t, s2, fmt.Sprintf("k%d", i), "v")
			}
			wantKey(t, s2, "post-compact", "pv")
		})
	}
}

// TestUpdateNoWaitDurabilityContract pins what a staged-but-unawaited
// commit (Store.UpdateNoWait — the cross-shard outbox cleanup) may and
// may not do at every boundary that touches it: it is lost only together
// with everything staged after it, never reordered, never stranded by
// Close, Checkpoint or Compact, and an fsync failure on the flush that
// carries it still fail-stops the store.
func TestUpdateNoWaitDurabilityContract(t *testing.T) {
	putNoWait := func(t *testing.T, s *db.Store, k, v string) {
		t.Helper()
		if err := s.UpdateNoWait(func(tx *db.Tx) error { return tx.Put("kv", k, []byte(v)) }); err != nil {
			t.Fatalf("unawaited put %s: %v", k, err)
		}
		wantKey(t, s, k, v) // applied to memory at once
	}
	boot := func(t *testing.T) (*diskfault.Disk, *db.Store, db.Journal) {
		t.Helper()
		d := diskfault.New(diskfault.Config{Seed: 13})
		s, _, j := bootFS(t, d, wire.CodecBin1)
		if err := s.CreateTable("kv"); err != nil {
			t.Fatal(err)
		}
		putKey(t, s, "acked", "1")
		return d, s, j
	}

	t.Run("lost alone when nothing flushes it", func(t *testing.T) {
		d, s, _ := boot(t)
		putNoWait(t, s, "cleanup", "x")
		d.Crash()
		s2, _, _ := bootFS(t, d, wire.CodecBin1)
		wantKey(t, s2, "acked", "1")
		wantAbsent(t, s2, "cleanup")
	})
	t.Run("rides the next awaited flush in staging order", func(t *testing.T) {
		d, s, _ := boot(t)
		putNoWait(t, s, "k", "staged-first")
		putKey(t, s, "k", "staged-second")
		d.Crash()
		s2, _, _ := bootFS(t, d, wire.CodecBin1)
		wantKey(t, s2, "k", "staged-second")
	})
	t.Run("fsync failure on its flush fail-stops the store", func(t *testing.T) {
		d, s, _ := boot(t)
		d.AddRule(diskfault.Rule{PathSuffix: ".wal", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO})
		putNoWait(t, s, "cleanup", "x") // staged: no I/O yet, no error yet
		err := s.Update(func(tx *db.Tx) error { return tx.Put("kv", "next", []byte("y")) })
		if !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("commit leading the failed flush = %v, want ErrStorageFailed", err)
		}
		if _, err := s.Get("kv", "acked"); !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("read after the failed flush = %v, want ErrStorageFailed", err)
		}
		if err := s.UpdateNoWait(func(tx *db.Tx) error { return tx.Put("kv", "later", nil) }); !errors.Is(err, db.ErrStorageFailed) {
			t.Fatalf("unawaited commit after the failed flush = %v, want ErrStorageFailed", err)
		}
		d.Crash()
		s2, _, _ := bootFS(t, d, wire.CodecBin1)
		wantKey(t, s2, "acked", "1")
		wantAbsent(t, s2, "next")
	})
	t.Run("Close flushes it", func(t *testing.T) {
		d, s, _ := boot(t)
		putNoWait(t, s, "cleanup", "x")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		d.Crash()
		s2, _, _ := bootFS(t, d, wire.CodecBin1)
		wantKey(t, s2, "cleanup", "x")
	})
	t.Run("Checkpoint covers it and Compact writes it out first", func(t *testing.T) {
		d, s, j := boot(t)
		putNoWait(t, s, "cleanup", "x")
		if _, err := s.CheckpointFS(d, ckptPath); err != nil {
			t.Fatal(err)
		}
		if err := j.(db.CompactableJournal).Compact(); err != nil {
			t.Fatalf("compact with an unawaited batch staged: %v", err)
		}
		putKey(t, s, "post-compact", "pv")
		d.Crash()
		s2, _, _ := bootFS(t, d, wire.CodecBin1)
		wantKey(t, s2, "acked", "1")
		wantKey(t, s2, "cleanup", "x")
		wantKey(t, s2, "post-compact", "pv")
	})
}

// TestCheckpointRemovesTmpOnFailure (satellite): a failed publishing
// rename or dir-fsync must not leave <path>.tmp behind.
func TestCheckpointRemovesTmpOnFailure(t *testing.T) {
	for _, fault := range []diskfault.Rule{
		{PathSuffix: ".ckpt.tmp", Op: diskfault.OpRename, Nth: 1, Err: diskfault.ErrIO},
		{PathSuffix: "/data", Op: diskfault.OpSyncDir, Nth: 1, Err: diskfault.ErrIO},
		{PathSuffix: ".ckpt.tmp", Op: diskfault.OpWrite, Nth: 1, Err: diskfault.ErrNoSpace},
		{PathSuffix: ".ckpt.tmp", Op: diskfault.OpSync, Nth: 1, Err: diskfault.ErrIO},
	} {
		t.Run(string(fault.Op), func(t *testing.T) {
			d := diskfault.New(diskfault.Config{Seed: 12})
			s, _, _ := bootFS(t, d, wire.CodecJSON)
			if err := s.CreateTable("kv"); err != nil {
				t.Fatal(err)
			}
			putKey(t, s, "k", "v")
			d.AddRule(fault)
			if _, err := s.CheckpointFS(d, ckptPath); err == nil {
				t.Fatal("checkpoint should fail under injected fault")
			}
			if b := d.Bytes(ckptPath + ".tmp"); b != nil {
				t.Fatalf("stale tmp left behind (%d bytes)", len(b))
			}
		})
	}
}

// TestBootSweepsStaleTmp (satellite): a .tmp stranded by a crash
// between write and rename is swept at open.
func TestBootSweepsStaleTmp(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 13})
	d.SetBytes(ckptPath+".tmp", []byte("half-written garbage"))
	s, _, _ := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	if b := d.Bytes(ckptPath + ".tmp"); b != nil {
		t.Fatalf("stale tmp not swept (%d bytes)", len(b))
	}
}

// TestRotationQuarantinesCorruptNewest: rotating a checkpoint that
// fails verification must move it to .corrupt, never over a
// possibly-good .1 — clobbering the only intact fallback would turn a
// recoverable fault into data loss.
func TestRotationQuarantinesCorruptNewest(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 14})
	s, _, _ := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	seqA, err := s.CheckpointFS(d, ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil { // A → .1
		t.Fatal(err)
	}
	if !d.Corrupt(ckptPath, 40, 0xFF) { // B rots
		t.Fatal("corrupt missed")
	}
	putKey(t, s, "w3", "c")
	if _, err := s.CheckpointFS(d, ckptPath); err != nil { // C; B must quarantine
		t.Fatal(err)
	}
	if d.Bytes(ckptPath+".corrupt") == nil {
		t.Fatal("corrupt generation was not quarantined")
	}
	sn, err := db.ReadSnapshot(bytes.NewReader(d.Bytes(ckptPath + ".1")))
	if err != nil {
		t.Fatalf(".1 no longer readable — corrupt newest clobbered it: %v", err)
	}
	if sn.Seq != seqA {
		t.Fatalf(".1 holds seq %d; want the intact generation A (seq %d)", sn.Seq, seqA)
	}
}

// TestLegacyHeaderlessCheckpointLoads pins seed-era compatibility: a
// raw-JSON checkpoint written before the checksummed format restores,
// reports Legacy, and rotates like any intact generation.
func TestLegacyHeaderlessCheckpointLoads(t *testing.T) {
	d := diskfault.New(diskfault.Config{Seed: 15})
	s, _, _ := bootFS(t, d, wire.CodecJSON)
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if _, err := sn.WriteTo(&legacy); err != nil { // plain JSON: the seed format
		t.Fatal(err)
	}
	d.SetBytes(ckptPath, legacy.Bytes())
	putKey(t, s, "w2", "b")
	d.Crash()

	s2, info, _ := bootFS(t, d, wire.CodecJSON)
	if info.Generation != 0 || !info.Legacy {
		t.Fatalf("BootInfo = %+v; want legacy generation 0", info)
	}
	wantKey(t, s2, "w1", "a")
	wantKey(t, s2, "w2", "b")

	// A new checkpoint rotates the legacy file as an intact generation.
	if _, err := s2.CheckpointFS(d, ckptPath); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadSnapshot(bytes.NewReader(d.Bytes(ckptPath + ".1"))); err != nil {
		t.Fatalf("rotated legacy generation unreadable: %v", err)
	}
}

// TestLegacyCheckpointOnRealFilesystem runs the legacy pin on the OS
// filesystem through the seed-signature entry points, proving a
// seed-era data dir opens unmodified.
func TestLegacyCheckpointOnRealFilesystem(t *testing.T) {
	dir := t.TempDir()
	wal, ckpt := filepath.Join(dir, "ledger.wal"), filepath.Join(dir, "ledger.ckpt")
	j, err := db.OpenFileJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w1", "a")
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if _, err := sn.WriteTo(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, legacy.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	putKey(t, s, "w2", "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := db.OpenFileJournal(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.OpenWithCheckpoint(ckpt, j2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantKey(t, s2, "w1", "a")
	wantKey(t, s2, "w2", "b")
}

func errorStringContains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
