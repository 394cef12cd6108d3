package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gridbank/internal/db"
)

// runFsck walks a gridbankd data directory offline, verifying every
// journal (CRC / parse / sequence walk, read-only — torn tails are
// reported, not truncated) and every checkpoint generation, and prints
// each journal's byte ledger — entries and bytes by (table, op) — and
// the boot decision the fallback chain would make for each store. It
// returns healthy=false when any store has no intact source of history.
func runFsck(w io.Writer, dataDir string) (healthy bool, err error) {
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		return false, err
	}
	stores := map[string]bool{}
	var stale []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".wal"):
			stores[strings.TrimSuffix(name, ".wal")] = true
		case strings.HasSuffix(name, ".ckpt"):
			stores[strings.TrimSuffix(name, ".ckpt")] = true
		case strings.HasSuffix(name, ".ckpt.1"):
			stores[strings.TrimSuffix(name, ".ckpt.1")] = true
		case strings.HasSuffix(name, ".ckpt.corrupt"):
			stores[strings.TrimSuffix(name, ".ckpt.corrupt")] = true
		case strings.HasSuffix(name, ".tmp"):
			stale = append(stale, name)
		}
	}
	if len(stores) == 0 {
		fmt.Fprintf(w, "fsck: no stores found in %s\n", dataDir)
		return true, nil
	}
	names := make([]string, 0, len(stores))
	for n := range stores {
		names = append(names, n)
	}
	sort.Strings(names)

	fsys := db.OSFS()
	healthy = true
	for _, name := range names {
		rep, err := db.FsckStore(fsys, name,
			filepath.Join(dataDir, name+".wal"),
			filepath.Join(dataDir, name+".ckpt"))
		if err != nil {
			return false, fmt.Errorf("fsck %s: %w", name, err)
		}
		fmt.Fprintf(w, "store %s:\n", name)
		fmt.Fprintf(w, "  journal %s.wal [%s]: %s\n", name, rep.Journal.Codec, rep.Journal.Verdict())
		printByteLedger(w, rep.Journal)
		for _, g := range rep.Generations {
			fmt.Fprintf(w, "  checkpoint %s: %s\n", filepath.Base(g.Path), g.Verdict())
		}
		if rep.Bootable {
			fmt.Fprintf(w, "  boot: %s\n", rep.BootSource)
		} else {
			fmt.Fprintf(w, "  boot: REFUSED — no intact source of history\n")
			healthy = false
		}
	}
	for _, name := range stale {
		fmt.Fprintf(w, "stale temp file %s (swept at next open)\n", name)
	}
	if healthy {
		fmt.Fprintf(w, "fsck: %d store(s), all bootable\n", len(names))
	} else {
		fmt.Fprintf(w, "fsck: UNHEALTHY — at least one store cannot boot\n")
	}
	return healthy, nil
}

// printByteLedger prints a journal's entries and bytes by (table, op),
// each with its share of the intact prefix; batch framing is the rest.
func printByteLedger(w io.Writer, jr *db.JournalReport) {
	if len(jr.ByTableOp) == 0 {
		return
	}
	share := func(n int64) float64 { return 100 * float64(n) / float64(jr.GoodBytes) }
	framing := jr.GoodBytes
	for _, o := range jr.ByTableOp {
		fmt.Fprintf(w, "    %-20s %-8s %10d entries %14d B %5.1f%%\n", o.Table, o.Op, o.Entries, o.Bytes, share(o.Bytes))
		framing -= o.Bytes
	}
	fmt.Fprintf(w, "    %-29s %10d batches %14d B %5.1f%%\n", "(batch framing)", jr.Batches, framing, share(framing))
}
