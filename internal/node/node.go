// Package node is the one place a GridBank server is assembled: the
// paper's security layer, accounts/admin, the three §3.3 payment
// protocols and the §5.1 record database behind one endpoint. gridbankd,
// gridbank.Deployment and the diskfault harness all boot through it, so
// the copy that handles money in production is the copy every harness
// exercises.
//
// Boot order (Open): pin the shard count → per shard, open
// <Dir>/ledger[-i].wal, restore through the ledger[-i].ckpt chain and,
// under Checkpoint, checkpoint + compact → shard.New (2PC recovery) →
// bank → per enabled pipeline, the same store treatment for
// <Dir>/usage.* / micropay.* and the pipeline over it (recovered
// transaction-ID pins reseed the allocator) → server. Nothing listens
// until the caller hands Serve and Publish listeners it bound itself.
// A failed Open closes whatever it had opened.
//
// Close order: server (stop accepting, finish in-flight requests),
// then the reverse of the boot: publishers → pipelines and their
// spools → shard stores, each store flushing its staged batches as it
// closes.
package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/replica"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

// Config describes one node. Open reads the primary fields, OpenReplica
// the identity, server and replication ones.
type Config struct {
	// FS is the filesystem the stores live on (nil = db.OSFS(); the
	// diskfault harness substitutes its Disk).
	FS db.FS
	// Dir is the data directory. Empty keeps every store volatile, in
	// memory — except shard 0 when Journal is set.
	Dir string
	// Journal persists shard 0 of a node without a data directory.
	Journal db.Journal
	// Shards is the ledger's shard count (0 = 1). It is pinned in
	// <Dir>/shards on first boot; later boots must match.
	Shards int
	// Sync fsyncs every journal flush.
	Sync bool
	// Checkpoint checkpoints and compacts every store as it opens, so
	// the next boot replays only this run's writes.
	Checkpoint bool
	// WALCodec is the codec of new journal generations ("" =
	// wire.CodecJSON); existing files keep their own.
	WALCodec string

	// Identity signs instruments and receipts and is the TLS server
	// identity; Trust verifies clients. Both required.
	Identity *pki.Identity
	Trust    *pki.TrustStore
	// Admins are bootstrapped into the administrator table.
	Admins []string
	// Branch is the four-digit branch number (default "0001").
	Branch string
	// DedupTTL bounds idempotency-marker retention (see core.BankConfig).
	DedupTTL time.Duration
	// Now injects a clock into ledger, bank and pipelines.
	Now func() time.Time

	// Usage and Micropay enable the settlement pipelines; nil is off.
	// The node fills in Ledger/Redeemer/FindAccount, Spool, Now, Log
	// and Obs.
	Usage    *usage.Config
	Micropay *micropay.Config

	// Server limits and codec policy (see core.Server). SlowOp > 0 logs
	// every request at least that slow to Log.
	MaxConns    int
	IdleTimeout time.Duration
	MaxInFlight int
	WireCodecs  []string
	SlowOp      time.Duration

	// PrimaryAddr is the client-facing API address: publishers
	// advertise it to followers, a replica names it in redirects.
	PrimaryAddr string
	// Heartbeat paces replication: the publishers' idle-frame interval
	// and a replica's reconnect pause (0 = the replica package's 500ms).
	Heartbeat time.Duration
	// ReplicaOf is the publisher address OpenReplica follows, and Shard
	// the shard index that publisher streams (with Shards > 1).
	ReplicaOf string
	Shard     int

	// Obs receives every layer's instruments and is served by
	// Metrics.Snapshot; nil leaves telemetry off.
	Obs *obs.Registry
	// Log receives boot narration, pipeline and replication faults and
	// slow-op lines; nil is silent.
	Log *obs.Logger
}

// store is one open store with what Maintain, Close and the checkpoint
// gauges need.
type store struct {
	*db.Store
	name    string
	journal db.Journal
	ckpt    string // checkpoint path; "" for a volatile store

	// Provenance of the checkpoint this store's state rests on
	// (guarded by Node.mu): its generation, -1 after a plain journal
	// replay, and when it was written.
	ckptGen int
	ckptAt  time.Time
}

// Node is one assembled GridBank primary.
type Node struct {
	cfg      Config
	stores   []*store // open order: shards, then spools
	ledger   *shard.Ledger
	bank     *core.Bank
	server   *core.Server
	usage    *usage.Pipeline
	micropay *micropay.Pipeline

	mu      sync.Mutex  // guards stores, their checkpoint provenance and closers
	closers []io.Closer // stores, pipelines and publishers in open order

	closeOnce sync.Once
	closeErr  error
}

// Open boots a node (see the package doc for the order). On error
// everything it opened is closed again.
func Open(cfg Config) (_ *Node, err error) {
	if cfg.FS == nil {
		cfg.FS = db.OSFS()
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("node: shard count %d", cfg.Shards)
	}
	if cfg.WALCodec == "" {
		cfg.WALCodec = wire.CodecJSON
	}
	n := &Node{cfg: cfg}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	if cfg.Dir != "" {
		if err := pinShardCount(cfg.FS, cfg.Dir, cfg.Shards); err != nil {
			return nil, err
		}
	}
	stores := make([]*db.Store, cfg.Shards)
	for i := range stores {
		// Shard 0 keeps the pre-sharding file names, so a 1-shard node
		// opens a pre-sharding data directory byte for byte.
		base, journal := "ledger", cfg.Journal
		if i > 0 {
			base, journal = fmt.Sprintf("ledger-%d", i), nil
		}
		if stores[i], err = n.openStore(base, journal); err != nil {
			return nil, err
		}
	}
	if n.ledger, err = shard.New(stores, shard.Config{Branch: cfg.Branch, Now: cfg.Now}); err != nil {
		return nil, err
	}
	// One registry for the whole node: the ledger forwards it to every
	// shard store, the bank serves it over Metrics.Snapshot, server and
	// pipelines record into it.
	n.ledger.SetObs(cfg.Obs)
	cfg.Obs.GaugeFunc("db.checkpoint_generation", func(now time.Time) int64 {
		gen, _ := n.checkpointProvenance(now)
		return gen
	})
	cfg.Obs.GaugeFunc("db.checkpoint_age_seconds", func(now time.Time) int64 {
		_, age := n.checkpointProvenance(now)
		return age
	})
	n.bank, err = core.NewBankWithLedger(n.ledger, core.BankConfig{
		Identity: cfg.Identity,
		Trust:    cfg.Trust,
		Admins:   cfg.Admins,
		Branch:   cfg.Branch,
		Now:      cfg.Now,
		DedupTTL: cfg.DedupTTL,
		Obs:      cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Usage != nil {
		if _, err := n.EnableUsage(*cfg.Usage); err != nil {
			return nil, err
		}
	}
	if cfg.Micropay != nil {
		if _, err := n.EnableMicropay(*cfg.Micropay); err != nil {
			return nil, err
		}
	}
	if n.server, err = core.NewServer(n.bank, cfg.Identity); err != nil {
		return nil, err
	}
	cfg.applyServer(n.server)
	return n, nil
}

// applyServer sets limits, codec policy and telemetry on a server
// before it serves.
func (cfg *Config) applyServer(srv *core.Server) {
	srv.MaxConns = cfg.MaxConns
	srv.IdleTimeout = cfg.IdleTimeout
	srv.MaxInFlight = cfg.MaxInFlight
	srv.WireCodecs = cfg.WireCodecs
	srv.Obs = cfg.Obs
	if cfg.SlowOp > 0 {
		srv.SlowOpLog, srv.SlowOpThreshold = cfg.Log, cfg.SlowOp
	}
	if cfg.Log == nil {
		srv.Logf = func(string, ...any) {}
	}
}

// openStore opens one store — a ledger shard or a pipeline spool — and
// records it for Maintain and Close. With a data directory that is
// <Dir>/<base>.wal restored through the <Dir>/<base>.ckpt chain, then
// checkpointed and compacted under cfg.Checkpoint; without one the
// store is volatile (or rides the given journal).
func (n *Node) openStore(base string, journal db.Journal) (*db.Store, error) {
	s := &store{name: base}
	info := &db.BootInfo{Generation: -1}
	var err error
	if n.cfg.Dir == "" {
		s.Store, err = db.Open(journal)
	} else {
		s.ckpt = filepath.Join(n.cfg.Dir, base+".ckpt")
		journal, err = db.OpenFileJournalCodecFS(n.cfg.FS, filepath.Join(n.cfg.Dir, base+".wal"), n.cfg.Sync, n.cfg.WALCodec)
		if err != nil {
			return nil, err
		}
		if s.Store, info, err = db.OpenWithCheckpointFS(n.cfg.FS, s.ckpt, journal); err != nil {
			journal.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("node: opening %s: %w", base, err)
	}
	s.journal, s.ckptGen, s.ckptAt = journal, info.Generation, info.ModTime
	n.mu.Lock()
	n.stores = append(n.stores, s)
	n.mu.Unlock()
	n.closeLater(s)
	for _, fb := range info.Fallbacks {
		n.cfg.Log.Warn("checkpoint fallback", "store", base, "skipped", fb)
	}
	n.cfg.Log.Info("store restored", "store", base, "checkpoint_generation", info.Generation,
		"checkpoint_seq", info.Seq, "legacy", info.Legacy)
	if n.cfg.Checkpoint && s.ckpt != "" {
		if err := n.maintain(s); err != nil {
			return nil, err
		}
	}
	s.SetObs(n.cfg.Obs)
	return s.Store, nil
}

// closeLater registers c for Close, which runs in reverse order.
func (n *Node) closeLater(c io.Closer) {
	n.mu.Lock()
	n.closers = append(n.closers, c)
	n.mu.Unlock()
}

// maintain snapshots one store's whole state, then drops the journal
// the snapshot covers: startup cost and disk use stay proportional to
// one run's writes, not the full history.
func (n *Node) maintain(s *store) error {
	seq, err := s.CheckpointFS(n.cfg.FS, s.ckpt)
	if err != nil {
		return fmt.Errorf("node: checkpoint %s: %w", s.name, err)
	}
	if cj, ok := s.journal.(db.CompactableJournal); ok {
		if err := cj.Compact(); err != nil {
			return fmt.Errorf("node: compacting %s journal after checkpoint: %w", s.name, err)
		}
	}
	n.mu.Lock()
	s.ckptGen, s.ckptAt = 0, time.Now()
	n.mu.Unlock()
	n.cfg.Log.Info("store checkpointed, journal compacted", "store", s.name, "seq", seq)
	return nil
}

// checkpointProvenance feeds the db.checkpoint_generation and
// db.checkpoint_age_seconds gauges: the worst generation any store
// rests on and the age of the oldest checkpoint in use, -1 each when no
// store has one.
func (n *Node) checkpointProvenance(now time.Time) (gen, age int64) {
	gen, age = -1, -1
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.stores {
		if s.ckptGen < 0 {
			continue
		}
		gen = max(gen, int64(s.ckptGen))
		if !s.ckptAt.IsZero() {
			age = max(age, now.Unix()-s.ckptAt.Unix(), 0)
		}
	}
	return gen, age
}

// Maintain runs the checkpoint + compact pass over every durable store
// of the live node — what Config.Checkpoint does as each store opens.
// The first error wins.
func (n *Node) Maintain() error {
	for _, s := range n.stores {
		if s.ckpt == "" {
			continue
		}
		if err := n.maintain(s); err != nil {
			return err
		}
	}
	return nil
}

// EnableUsage opens the usage spool and attaches the batched settlement
// pipeline to the bank (Config.Usage does this during Open). Pending
// charges a crash left in the spool are recovered before it returns.
// Idempotent: a second call returns the running pipeline.
func (n *Node) EnableUsage(uc usage.Config) (*usage.Pipeline, error) {
	if n.usage != nil {
		return n.usage, nil
	}
	spool, err := n.openStore("usage", nil)
	if err != nil {
		return nil, err
	}
	uc.Ledger, uc.Spool = n.ledger, spool
	uc.Now, uc.Log, uc.Obs = n.cfg.Now, n.cfg.Log, n.cfg.Obs
	if n.usage, err = usage.New(uc); err != nil {
		return nil, err
	}
	n.closeLater(n.usage)
	n.bank.SetUsage(n.usage)
	return n.usage, nil
}

// EnableMicropay opens the micropay spool and attaches the streaming
// GridHash redemption pipeline to the bank (Config.Micropay does this
// during Open). It shares the bank's chain redeemer, so streamed claims
// and synchronous RedeemChain calls serialize per serial. Idempotent.
func (n *Node) EnableMicropay(mc micropay.Config) (*micropay.Pipeline, error) {
	if n.micropay != nil {
		return n.micropay, nil
	}
	spool, err := n.openStore("micropay", nil)
	if err != nil {
		return nil, err
	}
	mc.Redeemer, mc.FindAccount, mc.Spool = n.bank.ChainRedeemer(), n.ledger.FindByCertificate, spool
	mc.Now, mc.Log, mc.Obs = n.cfg.Now, n.cfg.Log, n.cfg.Obs
	if n.micropay, err = micropay.New(mc); err != nil {
		return nil, err
	}
	n.closeLater(n.micropay)
	n.bank.SetMicropay(n.micropay)
	return n.micropay, nil
}

// Ledger returns the shard ledger (one shard on an unsharded node).
func (n *Node) Ledger() *shard.Ledger { return n.ledger }

// Bank returns the bank core.
func (n *Node) Bank() *core.Bank { return n.bank }

// Server returns the TLS API server, e.g. to RegisterOp before Serve.
func (n *Node) Server() *core.Server { return n.server }

// Usage returns the usage pipeline, nil when not enabled.
func (n *Node) Usage() *usage.Pipeline { return n.usage }

// Micropay returns the micropay pipeline, nil when not enabled.
func (n *Node) Micropay() *micropay.Pipeline { return n.micropay }

// Serve answers the API on ln until Close. It blocks.
func (n *Node) Serve(ln net.Listener) error { return n.server.Serve(ln) }

// Publish serves shard's commit stream to replication followers on ln,
// in the background, until Close.
func (n *Node) Publish(shardIdx int, ln net.Listener) error {
	if shardIdx < 0 || shardIdx >= n.cfg.Shards {
		return fmt.Errorf("node: shard %d out of range [0,%d)", shardIdx, n.cfg.Shards)
	}
	pub, err := replica.NewPublisher(replica.PublisherConfig{
		Store:       n.ledger.ShardStore(shardIdx),
		Identity:    n.cfg.Identity,
		Trust:       n.cfg.Trust,
		PrimaryAddr: n.cfg.PrimaryAddr,
		Heartbeat:   n.cfg.Heartbeat,
		WireCodecs:  n.cfg.WireCodecs,
	})
	if err != nil {
		return err
	}
	pub.Log = n.cfg.Log
	n.closeLater(pub)
	go func() {
		if err := pub.Serve(ln); err != nil {
			n.cfg.Log.Error("replication publisher stopped", "shard", shardIdx, "err", err)
		}
	}()
	return nil
}

// Close stops the server (no new connections, in-flight requests
// finish), then closes publishers, pipelines and stores in the reverse
// of the order they were opened. Idempotent; the first error wins.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.server != nil {
			n.closeErr = n.server.Close()
		}
		n.mu.Lock()
		closers := n.closers
		n.mu.Unlock()
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i].Close(); n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// pinShardCount records the shard count in <dir>/shards on first boot
// and refuses later boots that disagree: opening a subset of the shard
// journals would silently hide accounts and break the cross-shard
// duplicate-identity check, and a different count strands accounts on
// shards their IDs no longer hash to. Pre-sharding data directories
// (journal exists, no marker) are grandfathered as 1 shard.
func pinShardCount(fsys db.FS, dir string, shards int) error {
	path := filepath.Join(dir, "shards")
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err == nil {
		raw, rerr := io.ReadAll(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		pinned, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("corrupt shard-count marker %s: %q", path, raw)
		}
		if pinned != shards {
			return fmt.Errorf("data directory %s was created with -shards %d; refusing to open with -shards %d (resharding requires migration)", dir, pinned, shards)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if _, werr := fsys.Stat(filepath.Join(dir, "ledger.wal")); werr == nil && shards != 1 {
		return fmt.Errorf("data directory %s predates sharding (no shard-count marker); it holds 1 shard, got -shards %d", dir, shards)
	}
	if f, err = fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600); err != nil {
		return err
	}
	_, err = f.Write([]byte(strconv.Itoa(shards) + "\n"))
	if err == nil {
		// The marker guards every later boot, so it must outlive a power
		// loss as surely as the journals it counts.
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}
