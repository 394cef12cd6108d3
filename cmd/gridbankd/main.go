// Command gridbankd runs a GridBank server for one Virtual Organization.
//
// On first start with a fresh data directory it bootstraps the VO: a
// certificate authority, the bank's server identity, a "banker"
// administrator identity, and a durable ledger journal. Client and admin
// credentials are written under <data>/ for distribution:
//
//	gridbankd -data /var/lib/gridbank -vo VO-A -listen :7776
//
// Subsequent starts reuse the CA, identities and ledger. The flags fill
// a node.Config; internal/node owns what is opened, in which order, and
// how it is closed again on SIGINT/SIGTERM (see its package doc).
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
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/micropay"
	"gridbank/internal/node"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

func main() {
	var (
		cfg  node.Config
		ucfg usage.Config
		mcfg micropay.Config
	)
	flag.StringVar(&cfg.Dir, "data", "gridbank-data", "data directory (keys, CA, ledger journal)")
	flag.StringVar(&cfg.Branch, "branch", "0001", "four-digit branch number")
	flag.BoolVar(&cfg.Sync, "sync", true, "fsync the ledger journal on every commit")
	flag.BoolVar(&cfg.Checkpoint, "checkpoint", true, "checkpoint the ledger at startup (restart replays only the tail)")
	flag.IntVar(&cfg.Shards, "shards", 1, "partition the ledger over this many shards (one journal per shard; fixed once data exists)")
	flag.StringVar(&cfg.ReplicaOf, "replica-of", "", "run as a read replica of the publisher at this address")
	flag.IntVar(&cfg.Shard, "shard", 0, "with -replica-of on a sharded primary: the shard index this replica follows")
	flag.IntVar(&ucfg.Workers, "usage-workers", 2, "usage pipeline settlement workers")
	flag.IntVar(&ucfg.BatchSize, "usage-batch", 64, "usage pipeline max charges per ledger transaction")
	flag.IntVar(&ucfg.MaxPending, "usage-queue", 4096, "usage pipeline pending-queue bound (backpressure threshold)")
	flag.IntVar(&mcfg.Workers, "micropay-workers", 2, "micropay pipeline settlement workers")
	flag.IntVar(&mcfg.BatchSize, "micropay-batch", 64, "micropay pipeline max spool rows (one per chain) per settlement batch")
	flag.IntVar(&mcfg.MaxPending, "micropay-queue", 4096, "micropay pipeline pending-queue bound in spool rows (backpressure threshold)")
	flag.IntVar(&cfg.MaxConns, "max-conns", 0, "maximum concurrent client connections (0 = unlimited)")
	flag.DurationVar(&cfg.IdleTimeout, "idle-timeout", core.DefaultIdleTimeout, "drop connections idle this long (<0 disables)")
	flag.IntVar(&cfg.MaxInFlight, "max-in-flight", core.DefaultMaxInFlight, "per-connection concurrent request dispatch cap")
	flag.DurationVar(&cfg.DedupTTL, "dedup-ttl", core.DefaultDedupTTL, "retention of idempotency-key dedup markers (<0 disables the sweep)")
	flag.DurationVar(&cfg.SlowOp, "slow-op", 0, "log a structured line for every request whose queue wait + handler latency reaches this (0 disables)")
	flag.StringVar(&cfg.WALCodec, "wal-codec", wire.CodecBin1, "journal codec for new ledger/spool WAL generations: bin1 (length-prefixed binary records) or json; existing files keep their recorded format either way")
	var (
		vo        = flag.String("vo", "VO-A", "virtual organization name (used at bootstrap)")
		listen    = flag.String("listen", "127.0.0.1:7776", "listen address")
		issue     = flag.String("issue", "", "issue a user certificate with this common name and exit")
		publish   = flag.String("publish", "", "serve the replication commit stream on this address (primary)")
		primary   = flag.String("primary", "", "primary API address advertised in replica redirects")
		enableU   = flag.Bool("usage", false, "enable the batched usage-settlement pipeline (Usage.Submit/Status/Drain; spool in <data>/usage.wal)")
		enableM   = flag.Bool("micropay", false, "enable the streaming GridHash redemption pipeline (Micropay.Submit/Status/Drain; spool in <data>/micropay.wal)")
		obsAddr   = flag.String("obs-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address (keep it loopback, e.g. 127.0.0.1:7790; empty disables)")
		wireCodec = flag.String("wire-codec", wire.CodecBin1, "wire codec policy: bin1 negotiates binary frames per connection (seed peers that never offer stay JSON), json pins the seed format and refuses binary offers")
	)
	flag.Parse()
	var err error
	if cfg.WireCodecs, err = wireCodecList(*wireCodec); err != nil {
		log.Fatalf("gridbankd: %v", err)
	}
	if _, ok := wire.CodecByName(cfg.WALCodec); !ok {
		log.Fatalf("gridbankd: -wal-codec %q: unknown codec", cfg.WALCodec)
	}
	if cfg.Shards < 1 {
		log.Fatalf("gridbankd: -shards %d: need at least 1", cfg.Shards)
	}
	if *enableU {
		cfg.Usage = &ucfg
	}
	if *enableM {
		cfg.Micropay = &mcfg
	}
	cfg.Obs = obs.NewRegistry()
	cfg.Log = obs.NewLogger(os.Stderr, obs.LevelInfo)

	ca, err := loadOrCreateCA(cfg.Dir, *vo)
	if err != nil {
		log.Fatalf("gridbankd: %v", err)
	}
	cfg.Trust = pki.NewTrustStore(ca.Certificate())
	switch {
	case *issue != "":
		err = issueUser(ca, cfg.Dir, *vo, *issue)
	case cfg.ReplicaOf != "":
		cfg.PrimaryAddr = *primary
		if cfg.Identity, err = loadOrIssue(cfg.Dir, ca, "replica", *vo, true); err == nil {
			err = serveReplica(cfg, *listen, *obsAddr)
		}
	default:
		cfg.PrimaryAddr = *listen
		var banker *pki.Identity
		if cfg.Identity, err = loadOrIssue(cfg.Dir, ca, "bank", *vo, true); err == nil {
			banker, err = loadOrIssue(cfg.Dir, ca, "banker", *vo, false)
		}
		if err == nil {
			cfg.Admins = []string{banker.SubjectName()}
			err = servePrimary(cfg, *publish, *obsAddr)
		}
	}
	if err != nil {
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

// issueUser is the -issue mode: write <name>.crt/.key for a new user.
func issueUser(ca *pki.CA, dataDir, vo, name string) error {
	id, err := ca.Issue(pki.IssueOptions{CommonName: name, Organization: vo})
	if err != nil {
		return err
	}
	if err := pki.SaveIdentity(dataDir, name, id); err != nil {
		return err
	}
	fmt.Printf("issued %s -> %s/%s.crt, %s/%s.key\n", id.SubjectName(), dataDir, name, dataDir, name)
	return nil
}

// servePrimary boots the node, binds the ops endpoint, one commit-stream
// publisher per shard and the API listener — a taken port anywhere
// fails startup — and serves until a signal.
func servePrimary(cfg node.Config, publish, obsAddr string) error {
	n, err := node.Open(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	if cfg.Shards > 1 {
		log.Printf("gridbankd: ledger partitioned over %d shards (consistent hash, %d vnodes/shard)", cfg.Shards, n.Ledger().Ring().Vnodes())
	}
	var uWorkers, mWorkers int
	if c := cfg.Usage; c != nil {
		uWorkers = c.Workers
		log.Printf("gridbankd: usage settlement pipeline enabled (%d workers, batch %d, queue bound %d, %d pending recovered)",
			c.Workers, c.BatchSize, c.MaxPending, n.Usage().Status().Pending)
	}
	if c := cfg.Micropay; c != nil {
		mWorkers = c.Workers
		log.Printf("gridbankd: micropay streaming pipeline enabled (%d workers, batch %d, queue bound %d, %d pending recovered)",
			c.Workers, c.BatchSize, c.MaxPending, n.Micropay().Status().Pending)
	}
	obsBound, err := startObsServer(obsAddr, cfg.Obs)
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
		for i := 0; i < cfg.Shards; i++ {
			addr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return fmt.Errorf("-publish: shard %d commit stream: %w", i, err)
			}
			if err := n.Publish(i, ln); err != nil {
				ln.Close()
				return err
			}
			log.Printf("gridbankd: publishing shard %d commit stream on %s", i, addr)
		}
		publishers = cfg.Shards
	}
	// Bind before logging, and log what was bound: under -listen host:0
	// the kernel picks the port, and this line is where a supervisor
	// learns it.
	ln, err := net.Listen("tcp", cfg.PrimaryAddr)
	if err != nil {
		return err
	}
	log.Printf("gridbankd: %s branch %s serving on %s (CA %s)",
		cfg.Identity.SubjectName(), cfg.Branch, ln.Addr(), cfg.Identity.Cert.Issuer)
	log.Printf("gridbankd: topology: shards=%d publishers=%d usage_workers=%d micropay_workers=%d obs=%s dedup_ttl=%v",
		cfg.Shards, publishers, uWorkers, mWorkers, obsBound, cfg.DedupTTL)
	return untilSignal(func() error { return n.Serve(ln) }, n.Close)
}

// serveReplica runs the -replica-of mode: follow the publisher's commit
// stream and serve the query API read-only until a signal.
func serveReplica(cfg node.Config, listen, obsAddr string) error {
	r, err := node.OpenReplica(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	obsBound, err := startObsServer(obsAddr, cfg.Obs)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Printf("gridbankd: %s read replica of %s serving on %s (applied seq %d, obs %s)",
		cfg.Identity.SubjectName(), cfg.ReplicaOf, ln.Addr(), r.Follower().AppliedSeq(), obsBound)
	return untilSignal(func() error { return r.Serve(ln) }, r.Close)
}

// untilSignal runs serve until it fails or SIGINT/SIGTERM arrives, then
// shuts down: stop accepting, finish in-flight requests, flush and
// close every store. A signal is a clean exit.
func untilSignal(serve func() error, shutdown func() error) error {
	served := make(chan error, 1)
	go func() { served <- serve() }()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	select {
	case err := <-served:
		return err
	case sig := <-sigs:
		log.Printf("gridbankd: %v: shutting down", sig)
		return shutdown()
	}
}

// startObsServer serves /metrics and /debug/pprof on addr in the
// background and returns the bound address ("off" when addr is empty).
// The listener binds before returning, so a bad address fails startup
// instead of logging asynchronously.
func startObsServer(addr string, reg *obs.Registry) (string, error) {
	if addr == "" {
		return "off", nil
	}
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
