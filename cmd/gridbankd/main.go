// Command gridbankd runs a GridBank server for one Virtual Organization.
//
// On first start with a fresh data directory it bootstraps the VO: a
// certificate authority, the bank's server identity, a "banker"
// administrator identity, and a durable ledger journal. Client and admin
// credentials are written under <data>/ for distribution:
//
//	gridbankd -data /var/lib/gridbank -vo VO-A -listen :7776
//
// Subsequent starts reuse the CA, identities and ledger. Each start
// also writes a ledger checkpoint, so the next restart replays only the
// journal tail written after it (disable with -checkpoint=false).
//
// To enrol a user, issue a certificate with:
//
//	gridbankd -data /var/lib/gridbank -issue alice
//
// which writes alice.crt/alice.key for use with the gridbank CLI.
//
// Replication: a primary exposes its commit stream with -publish, and a
// read replica mirrors it with -replica-of, serving the query subset of
// the API (mutations redirect to the primary named by -primary):
//
//	gridbankd -data /var/lib/gridbank -listen :7776 -publish :7777
//	gridbankd -data /var/lib/gridbank-r1 -replica-of primary:7777 \
//	    -primary primary:7776 -listen :7778
//
// Sharding: -shards N partitions the ledger over N consistent-hash
// shards, one journal per shard (ledger.wal, ledger-1.wal, ...); the
// shard count is fixed once data exists. A sharded -publish serves one
// commit stream per shard on consecutive ports, and a replica follows
// one shard with -shard:
//
//	gridbankd -data /var/lib/gridbank -shards 4 -publish :7777
//	gridbankd -data /var/lib/gridbank-s2 -replica-of primary:7779 \
//	    -shards 4 -shard 2 -primary primary:7776 -listen :7780
//
// The replica's data directory must be seeded with the VO's CA files
// (ca.crt/ca.key from the primary's directory) so its identity chains
// to the same trust root.
//
// Usage settlement: -usage enables the batched asynchronous pipeline
// (Usage.Submit / Usage.Status / Usage.Drain), spooling intake to
// <data>/usage.wal and settling in per-(shard, account) batches:
//
//	gridbankd -data /var/lib/gridbank -shards 4 -usage \
//	    -usage-workers 4 -usage-batch 128
//
// Streaming micropayments: -micropay enables the GridHash streaming
// redemption pipeline (Micropay.Submit / Micropay.Status /
// Micropay.Drain), spooling claim intake to <data>/micropay.wal and
// settling chains in per-(shard, drawer) batches — one ledger
// transaction per chain per batch:
//
//	gridbankd -data /var/lib/gridbank -shards 4 -micropay \
//	    -micropay-workers 4 -micropay-batch 256
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

func main() {
	var (
		dataDir    = flag.String("data", "gridbank-data", "data directory (keys, CA, ledger journal)")
		vo         = flag.String("vo", "VO-A", "virtual organization name (used at bootstrap)")
		branch     = flag.String("branch", "0001", "four-digit branch number")
		listen     = flag.String("listen", "127.0.0.1:7776", "listen address")
		issue      = flag.String("issue", "", "issue a user certificate with this common name and exit")
		syncWAL    = flag.Bool("sync", true, "fsync the ledger journal on every commit")
		checkpoint = flag.Bool("checkpoint", true, "checkpoint the ledger at startup (restart replays only the tail)")
		shards     = flag.Int("shards", 1, "partition the ledger over this many shards (one journal per shard; fixed once data exists)")
		publish    = flag.String("publish", "", "serve the replication commit stream on this address (primary)")
		replicaOf  = flag.String("replica-of", "", "run as a read replica of the publisher at this address")
		shardIdx   = flag.Int("shard", 0, "with -replica-of on a sharded primary: the shard index this replica follows")
		primary    = flag.String("primary", "", "primary API address advertised in replica redirects")
		enableU    = flag.Bool("usage", false, "enable the batched usage-settlement pipeline (Usage.Submit/Status/Drain; spool in <data>/usage.wal)")
		uWorkers   = flag.Int("usage-workers", 2, "usage pipeline settlement workers")
		uBatch     = flag.Int("usage-batch", 64, "usage pipeline max charges per ledger transaction")
		uQueue     = flag.Int("usage-queue", 4096, "usage pipeline pending-queue bound (backpressure threshold)")
		enableM    = flag.Bool("micropay", false, "enable the streaming GridHash redemption pipeline (Micropay.Submit/Status/Drain; spool in <data>/micropay.wal)")
		mWorkers   = flag.Int("micropay-workers", 2, "micropay pipeline settlement workers")
		mBatch     = flag.Int("micropay-batch", 64, "micropay pipeline max claims per settlement pass")
		mQueue     = flag.Int("micropay-queue", 4096, "micropay pipeline pending-queue bound (backpressure threshold)")
		maxConns   = flag.Int("max-conns", 0, "maximum concurrent client connections (0 = unlimited)")
		idleConn   = flag.Duration("idle-timeout", core.DefaultIdleTimeout, "drop connections idle this long (<0 disables)")
		inFlight   = flag.Int("max-in-flight", core.DefaultMaxInFlight, "per-connection concurrent request dispatch cap")
		dedupTTL   = flag.Duration("dedup-ttl", core.DefaultDedupTTL, "retention of idempotency-key dedup markers (<0 disables the sweep)")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address (keep it loopback, e.g. 127.0.0.1:7790; empty disables)")
		slowOp     = flag.Duration("slow-op", 0, "log a structured line for every request whose queue wait + handler latency reaches this (0 disables)")
		wireCodec  = flag.String("wire-codec", wire.CodecBin1, "wire codec policy: bin1 negotiates binary frames per connection (seed peers that never offer stay JSON), json pins the seed format and refuses binary offers")
		walCodec   = flag.String("wal-codec", wire.CodecBin1, "journal codec for new ledger/spool WAL generations: bin1 (length-prefixed binary records) or json; existing files keep their recorded format either way")
	)
	flag.Parse()
	codecs, err := wireCodecList(*wireCodec)
	if err != nil {
		log.Fatalf("gridbankd: %v", err)
	}
	if _, ok := wire.CodecByName(*walCodec); !ok {
		log.Fatalf("gridbankd: -wal-codec %q: unknown codec", *walCodec)
	}
	lcfg := limitFlags{maxConns: *maxConns, idleTimeout: *idleConn, maxInFlight: *inFlight, wireCodecs: codecs}
	ocfg := obsFlags{addr: *obsAddr, slowOp: *slowOp}
	if *replicaOf != "" {
		if err := runReplica(*dataDir, *vo, *listen, *replicaOf, *primary, *shardIdx, *shards, lcfg, ocfg); err != nil {
			log.Fatalf("gridbankd: %v", err)
		}
		return
	}
	ucfg := usageFlags{enabled: *enableU, workers: *uWorkers, batch: *uBatch, queue: *uQueue}
	mcfg := micropayFlags{enabled: *enableM, workers: *mWorkers, batch: *mBatch, queue: *mQueue}
	if err := run(*dataDir, *vo, *branch, *listen, *issue, *publish, *shards, *syncWAL, *checkpoint, *walCodec, *dedupTTL, ucfg, mcfg, lcfg, ocfg); err != nil {
		log.Fatalf("gridbankd: %v", err)
	}
}

// wireCodecList maps the -wire-codec policy to the accept/offer list
// every server and follower in this process uses.
func wireCodecList(v string) ([]string, error) {
	switch v {
	case wire.CodecBin1:
		return []string{wire.CodecBin1, wire.CodecJSON}, nil
	case wire.CodecJSON:
		return []string{wire.CodecJSON}, nil
	default:
		return nil, fmt.Errorf("-wire-codec %q: unknown codec (want %s or %s)", v, wire.CodecBin1, wire.CodecJSON)
	}
}

// limitFlags carries the connection-limit and wire-codec flag values
// into run and runReplica.
type limitFlags struct {
	maxConns    int
	idleTimeout time.Duration
	maxInFlight int
	wireCodecs  []string
}

// apply sets the limits and codec policy on a server before it starts
// serving.
func (l limitFlags) apply(srv *core.Server) {
	srv.MaxConns = l.maxConns
	srv.IdleTimeout = l.idleTimeout
	srv.MaxInFlight = l.maxInFlight
	srv.WireCodecs = l.wireCodecs
}

// pipelineFlags carries one settlement pipeline's flag group into run —
// the -usage* and -micropay* surfaces are the same knobs over the same
// intake shape, so they share one struct (mirroring
// gridbank.PipelineOptions).
type pipelineFlags struct {
	enabled               bool
	workers, batch, queue int
}

// usageFlags and micropayFlags name the two instances of the shared
// pipeline flag group.
type (
	usageFlags    = pipelineFlags
	micropayFlags = pipelineFlags
)

// obsFlags carries the telemetry flag values into run and runReplica.
type obsFlags struct {
	addr   string
	slowOp time.Duration
}

// apply wires the process registry and slow-op log into a server and
// starts the ops endpoint, returning the bound obs address ("" when
// disabled).
func (o obsFlags) apply(srv *core.Server, reg *obs.Registry) (string, error) {
	srv.Obs = reg
	if o.slowOp > 0 {
		srv.SlowOpLog = obs.NewLogger(os.Stderr, obs.LevelInfo)
		srv.SlowOpThreshold = o.slowOp
	}
	if o.addr == "" {
		return "", nil
	}
	return startObsServer(o.addr, reg)
}

// startObsServer serves /metrics and /debug/pprof on addr in the
// background. The listener binds before returning, so a bad address
// fails startup instead of logging asynchronously.
func startObsServer(addr string, reg *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("-obs-addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := obs.WritePrometheus(w, reg.Snapshot()); err != nil {
			log.Printf("gridbankd: obs: rendering /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("gridbankd: obs endpoint: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

func run(dataDir, vo, branch, listen, issue, publish string, shards int, syncWAL, checkpoint bool, walCodec string, dedupTTL time.Duration, ucfg usageFlags, mcfg micropayFlags, lcfg limitFlags, ocfg obsFlags) error {
	if shards < 1 {
		return fmt.Errorf("-shards %d: need at least 1", shards)
	}
	ca, err := loadOrCreateCA(dataDir, vo)
	if err != nil {
		return err
	}
	if issue != "" {
		id, err := ca.Issue(pki.IssueOptions{CommonName: issue, Organization: vo})
		if err != nil {
			return err
		}
		if err := pki.SaveIdentity(dataDir, issue, id); err != nil {
			return err
		}
		fmt.Printf("issued %s -> %s/%s.crt, %s/%s.key\n", id.SubjectName(), dataDir, issue, dataDir, issue)
		return nil
	}

	bankID, err := loadOrIssue(dataDir, ca, "bank", vo, true)
	if err != nil {
		return err
	}
	banker, err := loadOrIssue(dataDir, ca, "banker", vo, false)
	if err != nil {
		return err
	}
	// Shard i lives in ledger-<i>.wal / ledger-<i>.ckpt; shard 0 keeps
	// the historical unsuffixed names, so a -shards 1 server (the
	// default) opens pre-sharding data directories unchanged, byte for
	// byte. The shard count is fixed once data exists: reopening under
	// a different count would strand accounts on shards their IDs no
	// longer hash to, so it is pinned in a marker file on first boot
	// and every later boot must match (forgetting -shards after a
	// sharded bootstrap is the dangerous default this catches).
	if err := pinShardCount(dataDir, shards); err != nil {
		return err
	}
	shardFiles := func(i int) (wal, ckpt string) {
		if i == 0 {
			return filepath.Join(dataDir, "ledger.wal"), filepath.Join(dataDir, "ledger.ckpt")
		}
		return filepath.Join(dataDir, fmt.Sprintf("ledger-%d.wal", i)),
			filepath.Join(dataDir, fmt.Sprintf("ledger-%d.ckpt", i))
	}
	stores := make([]*db.Store, shards)
	tele := &ckptTelemetry{}
	for i := range stores {
		walPath, ckptPath := shardFiles(i)
		journal, err := db.OpenFileJournalCodec(walPath, syncWAL, walCodec)
		if err != nil {
			return err
		}
		store, info, err := db.OpenWithCheckpointFS(db.OSFS(), ckptPath, journal)
		if err != nil {
			return err
		}
		logBoot(fmt.Sprintf("shard %d", i), info)
		var fresh time.Time
		if checkpoint {
			// Quiescent window before serving: snapshot the whole state,
			// then drop the journal it covers — startup cost and disk
			// usage stay proportional to one run's writes, not the full
			// history.
			seq, err := store.Checkpoint(ckptPath)
			if err != nil {
				return fmt.Errorf("checkpoint shard %d: %w", i, err)
			}
			if cj, ok := journal.(db.CompactableJournal); ok {
				if err := cj.Compact(); err != nil {
					return fmt.Errorf("compacting shard %d journal after checkpoint: %w", i, err)
				}
			}
			fresh = time.Now()
			log.Printf("gridbankd: checkpointed shard %d at seq %d (%s), journal compacted", i, seq, ckptPath)
		}
		tele.note(info, fresh)
		stores[i] = store
	}
	trust := pki.NewTrustStore(ca.Certificate())
	ledger, err := shard.New(stores, shard.Config{Branch: branch})
	if err != nil {
		return err
	}
	// One process-wide registry: the ledger forwards it to every shard
	// store, the bank serves it over Metrics.Snapshot, the server and
	// usage pipeline record into it, and -obs-addr scrapes it.
	reg := obs.NewRegistry()
	ledger.SetObs(reg)
	bank, err := core.NewBankWithLedger(ledger, core.BankConfig{
		Identity: bankID,
		Trust:    trust,
		Admins:   []string{banker.SubjectName()},
		Branch:   branch,
		DedupTTL: dedupTTL,
		Obs:      reg,
	})
	if err != nil {
		return err
	}
	if shards > 1 {
		log.Printf("gridbankd: ledger partitioned over %d shards (consistent hash, %d vnodes/shard)", shards, ledger.Ring().Vnodes())
	}
	// enable boots one settlement pipeline if its flag group asks for
	// it. The spool gets the same durability treatment as a shard —
	// WAL-backed with a startup checkpoint, so a crash replays accepted-
	// but-unsettled work and the journal stays proportional to one run —
	// then build constructs the pipeline over it and attaches it to the
	// bank. All before serving, so recovered transaction-ID pins reseed
	// the allocator ahead of any traffic.
	enable := func(name, label string, f pipelineFlags, build func(spool *db.Store, lg *obs.Logger) (pipe io.Closer, pending int, err error)) (io.Closer, error) {
		if !f.enabled {
			return io.NopCloser(nil), nil
		}
		spool, err := openSpool(dataDir, name, syncWAL, checkpoint, walCodec, tele)
		if err != nil {
			return nil, err
		}
		spool.SetObs(reg)
		pipe, pending, err := build(spool, obs.NewLogger(os.Stderr, obs.LevelWarn))
		if err != nil {
			return nil, err
		}
		log.Printf("gridbankd: %s pipeline enabled (%d workers, batch %d, queue bound %d, %d pending recovered)",
			label, f.workers, f.batch, f.queue, pending)
		return pipe, nil
	}
	upipe, err := enable("usage", "usage settlement", ucfg, func(spool *db.Store, lg *obs.Logger) (io.Closer, int, error) {
		pipe, err := usage.New(usage.Config{
			Ledger:     usage.WrapSharded(ledger),
			Spool:      spool,
			BatchSize:  ucfg.batch,
			Workers:    ucfg.workers,
			MaxPending: ucfg.queue,
			Log:        lg,
			Obs:        reg,
		})
		if err != nil {
			return nil, 0, err
		}
		bank.SetUsage(pipe)
		return pipe, pipe.Status().Pending, nil
	})
	if err != nil {
		return err
	}
	defer upipe.Close()
	mpipe, err := enable("micropay", "micropay streaming", mcfg, func(spool *db.Store, lg *obs.Logger) (io.Closer, int, error) {
		pipe, err := micropay.New(micropay.Config{
			Redeemer:    bank.ChainRedeemer(),
			FindAccount: bank.Ledger().FindByCertificate,
			Spool:       spool,
			BatchSize:   mcfg.batch,
			Workers:     mcfg.workers,
			MaxPending:  mcfg.queue,
			Log:         lg,
			Obs:         reg,
		})
		if err != nil {
			return nil, 0, err
		}
		bank.SetMicropay(pipe)
		return pipe, pipe.Status().Pending, nil
	})
	if err != nil {
		return err
	}
	defer mpipe.Close()
	// Checkpoint provenance gauges: generation is fixed at boot (every
	// store is open by now); age is a callback so it stays live between
	// scrapes without a background updater.
	reg.Gauge("db.checkpoint_generation").Set(tele.generation())
	reg.GaugeFunc("db.checkpoint_age_seconds", tele.age)
	srv, err := core.NewServer(bank, bankID)
	if err != nil {
		return err
	}
	lcfg.apply(srv)
	obsBound, err := ocfg.apply(srv, reg)
	if err != nil {
		return err
	}
	publishers := 0
	if publish != "" {
		// One commit stream per shard: shard 0 on the given address,
		// shard i on port+i. Replicas subscribe per shard (a replica of
		// shard 2 points -replica-of at port+2).
		host, portStr, err := net.SplitHostPort(publish)
		if err != nil {
			return fmt.Errorf("-publish %s: %w", publish, err)
		}
		basePort, err := strconv.Atoi(portStr)
		if err != nil {
			return fmt.Errorf("-publish %s: %w", publish, err)
		}
		for i, store := range ledger.Stores() {
			pub, err := replica.NewPublisher(replica.PublisherConfig{
				Store:       store,
				Identity:    bankID,
				Trust:       trust,
				PrimaryAddr: listen,
				WireCodecs:  lcfg.wireCodecs,
			})
			if err != nil {
				return err
			}
			pub.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)
			publishers++
			addr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
			go func(i int) {
				if err := pub.ListenAndServe(addr); err != nil {
					log.Printf("gridbankd: shard %d replication publisher: %v", i, err)
				}
			}(i)
			log.Printf("gridbankd: publishing shard %d commit stream on %s", i, addr)
		}
	}
	// Bind before logging, and log what was bound: under -listen host:0
	// the kernel picks the port, and this line is where a supervisor
	// learns it.
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Printf("gridbankd: %s branch %s serving on %s (CA %s)",
		bankID.SubjectName(), branch, ln.Addr(), pki.SubjectNameOf(ca.Certificate()))
	log.Printf("gridbankd: topology: shards=%d publishers=%d usage_workers=%d obs=%s dedup_ttl=%v",
		shards, publishers, topologyUsageWorkers(ucfg), topologyObs(obsBound), dedupTTL)
	return srv.Serve(ln)
}

// ckptTelemetry aggregates checkpoint provenance across every store
// the process opens (ledger shards + pipeline spools), feeding the
// db.checkpoint_generation / db.checkpoint_age_seconds gauges. All
// notes happen during single-threaded startup, before the registry is
// scraped, so no locking is needed.
type ckptTelemetry struct {
	worstGen   int64 // highest generation any store booted from
	oldestUnix int64 // unix time of the oldest checkpoint in use (0 = none)
	have       bool  // at least one store restored from a checkpoint
}

// note records one store's boot provenance; fresh is the time of a
// startup checkpoint taken right after the restore (zero when the
// -checkpoint pass is disabled).
func (c *ckptTelemetry) note(info *db.BootInfo, fresh time.Time) {
	gen, ts := int64(info.Generation), info.ModTime
	if !fresh.IsZero() {
		// The startup checkpoint just rewrote generation 0.
		gen, ts = 0, fresh
	}
	if gen < 0 {
		return // plain journal replay: no checkpoint to age
	}
	c.have = true
	if gen > c.worstGen {
		c.worstGen = gen
	}
	if u := ts.Unix(); !ts.IsZero() && (c.oldestUnix == 0 || u < c.oldestUnix) {
		c.oldestUnix = u
	}
}

// generation is the gauge value: worst generation in use, -1 when no
// store restored from a checkpoint.
func (c *ckptTelemetry) generation() int64 {
	if !c.have {
		return -1
	}
	return c.worstGen
}

// age is the db.checkpoint_age_seconds callback: seconds since the
// oldest checkpoint in use, -1 when no store has one.
func (c *ckptTelemetry) age(now time.Time) int64 {
	if c.oldestUnix == 0 {
		return -1
	}
	if age := now.Unix() - c.oldestUnix; age > 0 {
		return age
	}
	return 0
}

// logBoot prints the startup restore line for one store, including the
// checkpoint generation used and any generations skipped on the way.
func logBoot(name string, info *db.BootInfo) {
	for _, fb := range info.Fallbacks {
		log.Printf("gridbankd: WARNING %s checkpoint fallback: %s", name, fb)
	}
	switch {
	case info.Generation < 0:
		log.Printf("gridbankd: %s restored by journal replay (no checkpoint)", name)
	case info.Legacy:
		log.Printf("gridbankd: %s restored from checkpoint generation %d (legacy format, seq %d, %s)",
			name, info.Generation, info.Seq, info.Path)
	default:
		log.Printf("gridbankd: %s restored from checkpoint generation %d (seq %d, %s)",
			name, info.Generation, info.Seq, info.Path)
	}
}

// openSpool opens a durable pipeline intake spool (<data>/<name>.wal
// with a <data>/<name>.ckpt startup checkpoint) — the same treatment a
// ledger shard gets, so crash recovery replays pending entries and the
// journal stays proportional to one run's writes.
func openSpool(dataDir, name string, syncWAL, checkpoint bool, walCodec string, tele *ckptTelemetry) (*db.Store, error) {
	spoolWAL := filepath.Join(dataDir, name+".wal")
	spoolCkpt := filepath.Join(dataDir, name+".ckpt")
	journal, err := db.OpenFileJournalCodec(spoolWAL, syncWAL, walCodec)
	if err != nil {
		return nil, err
	}
	spool, info, err := db.OpenWithCheckpointFS(db.OSFS(), spoolCkpt, journal)
	if err != nil {
		return nil, err
	}
	logBoot(name+" spool", info)
	var fresh time.Time
	if checkpoint {
		seq, err := spool.Checkpoint(spoolCkpt)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %s spool: %w", name, err)
		}
		if cj, ok := journal.(db.CompactableJournal); ok {
			if err := cj.Compact(); err != nil {
				return nil, fmt.Errorf("compacting %s spool journal: %w", name, err)
			}
		}
		fresh = time.Now()
		log.Printf("gridbankd: checkpointed %s spool at seq %d (%s)", name, seq, spoolCkpt)
	}
	tele.note(info, fresh)
	return spool, nil
}

// topologyUsageWorkers renders the usage-worker count for the topology
// summary (0 when the pipeline is disabled).
func topologyUsageWorkers(ucfg usageFlags) int {
	if !ucfg.enabled {
		return 0
	}
	return ucfg.workers
}

// followerOffers maps the process codec policy to the follower's hello
// offer: pinned-to-JSON sends no offer at all, keeping the hello
// byte-identical to the seed protocol.
func followerOffers(codecs []string) []string {
	if len(codecs) == 1 && codecs[0] == wire.CodecJSON {
		return nil
	}
	return codecs
}

// topologyObs renders the obs address for the topology summary.
func topologyObs(bound string) string {
	if bound == "" {
		return "off"
	}
	return bound
}

// runReplica runs the -replica-of mode: follow the publisher's commit
// stream and serve the query API read-only.
func runReplica(dataDir, vo, listen, publisherAddr, primaryAddr string, shardIdx, shardCount int, lcfg limitFlags, ocfg obsFlags) error {
	ca, err := loadOrCreateCA(dataDir, vo)
	if err != nil {
		return err
	}
	id, err := loadOrIssue(dataDir, ca, "replica", vo, true)
	if err != nil {
		return err
	}
	trust := pki.NewTrustStore(ca.Certificate())
	reg := obs.NewRegistry()
	fol, err := replica.StartFollower(replica.FollowerConfig{
		PublisherAddr: publisherAddr,
		Identity:      id,
		Trust:         trust,
		OfferCodecs:   followerOffers(lcfg.wireCodecs),
		Log:           obs.NewLogger(os.Stderr, obs.LevelInfo),
		Obs:           reg,
	})
	if err != nil {
		return err
	}
	defer fol.Close()
	if err := fol.WaitReady(30 * time.Second); err != nil {
		return err
	}
	roCfg := core.ReadOnlyBankConfig{
		Identity:    id,
		Trust:       trust,
		PrimaryAddr: primaryAddr,
		Obs:         reg,
	}
	if shardCount > 1 {
		roCfg.Shard = &core.ShardInfo{Index: shardIdx, Count: shardCount}
		// Sanity-check the claimed shard against the mirrored data: the
		// publisher ports are consecutive per shard, so a -shard that
		// disagrees with -replica-of would serve false not_found for
		// every real account. Any account bootstrapped into this store
		// must hash to the claimed shard.
		if err := checkShardIndex(fol.Store(), shardIdx, shardCount); err != nil {
			return err
		}
	}
	rb, err := core.NewReadOnlyBank(fol, roCfg)
	if err != nil {
		return err
	}
	srv, err := core.NewReadOnlyServer(rb, id)
	if err != nil {
		return err
	}
	lcfg.apply(srv)
	obsBound, err := ocfg.apply(srv, reg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Printf("gridbankd: %s read replica of %s serving on %s (applied seq %d, obs %s)",
		id.SubjectName(), publisherAddr, ln.Addr(), fol.AppliedSeq(), topologyObs(obsBound))
	return srv.Serve(ln)
}

// checkShardIndex verifies that the accounts a shard replica mirrored
// actually hash to the shard it claims to serve (-shard vs -replica-of
// mismatch detection). An empty store proves nothing and passes.
func checkShardIndex(store *db.Store, shardIdx, shardCount int) error {
	if store == nil {
		return nil
	}
	ring, err := shard.NewRing(shardCount, 0)
	if err != nil {
		return err
	}
	var mismatch error
	err = store.Scan("accounts", func(key string, _ []byte) bool {
		if owner := ring.ShardFor(key); owner != shardIdx {
			mismatch = fmt.Errorf("mirrored account %s hashes to shard %d, but this replica claims -shard %d of %d — check that -replica-of points at shard %d's stream", key, owner, shardIdx, shardCount, shardIdx)
			return false
		}
		return true
	})
	if err != nil && !errors.Is(err, db.ErrNoTable) {
		return err
	}
	return mismatch
}

// pinShardCount records the shard count in <data>/shards on first boot
// and refuses later boots whose -shards disagrees: opening a subset of
// the shard journals would silently hide accounts and break the
// cross-shard duplicate-identity check. Pre-sharding data directories
// (journal exists, no marker) are grandfathered as 1 shard.
func pinShardCount(dataDir string, shards int) error {
	path := filepath.Join(dataDir, "shards")
	raw, err := os.ReadFile(path)
	if err == nil {
		pinned, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("corrupt shard-count marker %s: %q", path, raw)
		}
		if pinned != shards {
			return fmt.Errorf("data directory %s was created with -shards %d; refusing to open with -shards %d (resharding requires migration)", dataDir, pinned, shards)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if _, werr := os.Stat(filepath.Join(dataDir, "ledger.wal")); werr == nil && shards != 1 {
		return fmt.Errorf("data directory %s predates sharding (no shard-count marker); it holds 1 shard, got -shards %d", dataDir, shards)
	}
	if err := os.MkdirAll(dataDir, 0o700); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strconv.Itoa(shards)+"\n"), 0o600)
}

// loadOrCreateCA reuses the data directory's CA or bootstraps one.
func loadOrCreateCA(dataDir, vo string) (*pki.CA, error) {
	caID, err := pki.LoadIdentity(dataDir, "ca")
	if err == nil {
		return pki.ResumeCA(caID)
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	ca, err := pki.NewCA(vo+" CA", vo, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	if err := pki.SaveIdentity(dataDir, "ca", ca.Identity()); err != nil {
		return nil, err
	}
	if err := pki.SaveCACert(filepath.Join(dataDir, "ca.pem"), ca.Certificate()); err != nil {
		return nil, err
	}
	log.Printf("gridbankd: bootstrapped CA %s (distribute %s/ca.pem to clients)",
		pki.SubjectNameOf(ca.Certificate()), dataDir)
	return ca, nil
}

func loadOrIssue(dataDir string, ca *pki.CA, name, vo string, server bool) (*pki.Identity, error) {
	id, err := pki.LoadIdentity(dataDir, name)
	if err == nil {
		return id, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	id, err = ca.Issue(pki.IssueOptions{CommonName: name, Organization: vo, IsServer: server})
	if err != nil {
		return nil, err
	}
	if err := pki.SaveIdentity(dataDir, name, id); err != nil {
		return nil, err
	}
	return id, nil
}
