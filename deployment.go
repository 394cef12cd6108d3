package gridbank

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/pki"
	"gridbank/internal/replica"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// DeploymentConfig parameterizes NewDeployment.
type DeploymentConfig struct {
	// VO names the virtual organization; it becomes the CA name and the
	// certificate O= component. Required.
	VO string
	// Branch is the four-digit branch number (default "0001").
	Branch string
	// Admins lists extra administrator certificate names; the deployment
	// always creates its own "banker" admin identity.
	Admins []string
	// Journal persists the ledger; nil keeps it in memory.
	Journal Journal
	// ListenAddr is where the server listens (default "127.0.0.1:0",
	// i.e. an ephemeral loopback port).
	ListenAddr string
	// Now injects a clock (simulations); default time.Now.
	Now func() time.Time
	// MaxConns caps concurrent client connections on every server the
	// deployment runs (primary and read replicas). 0 = unlimited.
	MaxConns int
	// IdleTimeout drops connections with no traffic and no in-flight
	// requests. 0 = the server default (core.DefaultIdleTimeout);
	// negative disables.
	IdleTimeout time.Duration
	// MaxInFlight caps concurrently dispatched requests per connection.
	// 0 = the server default (core.DefaultMaxInFlight).
	MaxInFlight int
	// DedupTTL bounds how long idempotency-key dedup markers protect a
	// replayed mutation. 0 = the bank default (core.DefaultDedupTTL);
	// negative disables the sweep.
	DedupTTL time.Duration
	// WireCodecs selects the wire codec policy for everything the
	// deployment stands up, in preference order (wire.CodecBin1,
	// wire.CodecJSON). Servers (primary and replicas) accept these in
	// negotiation; clients dialed through the deployment and the
	// replication followers offer them. Nil is the seed behavior:
	// servers accept any supported codec but nothing offers, so every
	// frame stays JSON.
	WireCodecs []string
}

// applyLimits pushes the deployment's connection limits onto a server
// before it starts serving.
func (cfg DeploymentConfig) applyLimits(srv *core.Server) {
	srv.MaxConns = cfg.MaxConns
	srv.IdleTimeout = cfg.IdleTimeout
	srv.MaxInFlight = cfg.MaxInFlight
	srv.WireCodecs = cfg.WireCodecs
}

// Deployment is a complete single-VO GridBank: CA, trust store, bank,
// TLS server, and an administrator identity. It exists so examples,
// tests and experiments can stand up a working Grid bank in one call;
// production deployments wire the pieces explicitly (see cmd/gridbankd).
type Deployment struct {
	CA     *CA
	Trust  *TrustStore
	Bank   *Bank
	Server *Server
	// Banker is the built-in administrator identity.
	Banker *Identity

	cfg       DeploymentConfig
	bankID    *Identity
	addr      string
	serveErr  chan error
	closeOnce sync.Once
	closeErr  error

	// sharded is the shard ledger when EnableSharding was called (even
	// with n=1); nil for a classic single-store deployment.
	sharded *shard.Ledger

	pubs     map[int]*shardPublisher // shard index -> commit-stream publisher
	replicas []*ReadReplica

	// usagePipe is the batched settlement pipeline when EnableUsage was
	// called; nil otherwise.
	usagePipe *usage.Pipeline

	// micropayPipe is the streaming chain-redemption pipeline when
	// EnableMicropay was called; nil otherwise.
	micropayPipe *micropay.Pipeline
}

// PipelineOptions is the shared tuning surface of the deployment's two
// spooled settlement pipelines — batched usage (EnableUsage) and
// streaming micropayment redemption (EnableMicropay). Both pipelines
// have the same intake shape (spool, batch, workers, backpressure), so
// they share one option struct; zero values take the pipeline defaults:
// 64-item batches, 2 workers, 4096-deep queue.
type PipelineOptions struct {
	// BatchSize caps how many spooled items one settlement pass takes
	// off the queue and coalesces into one ledger transaction (for
	// micropay, all claims for one chain inside a batch settle as one
	// redemption).
	BatchSize int
	// Workers is the number of background settlement goroutines.
	// Negative runs none (settlement through Drain/SettleOnce only).
	Workers int
	// MaxPending bounds the intake queue (backpressure threshold).
	MaxPending int
	// SpoolJournal persists the intake spool; nil keeps it in memory —
	// the in-process harness trades intake durability for convenience,
	// exactly like EnableSharding's extra shards. Production wiring
	// with a WAL-backed spool is gridbankd's job (see -usage and
	// -micropay).
	SpoolJournal Journal
}

// UsageOptions tune EnableUsage. Alias of PipelineOptions: existing
// composite literals keep compiling, and harness code can build one
// option set and pass it to both pipelines.
type UsageOptions = PipelineOptions

// shardPublisher is one shard's WAL-shipping publisher.
type shardPublisher struct {
	pub      *replica.Publisher
	addr     string
	serveErr chan error
}

// ReadReplica is one in-process WAL-shipped read replica of a
// Deployment: a follower mirroring one primary store (the whole ledger,
// or a single shard of it) plus a read-only TLS server answering the
// query API from it.
type ReadReplica struct {
	Follower *replica.Follower
	Server   *core.Server
	// Shard is the shard this replica follows (0 on an unsharded
	// deployment).
	Shard int

	addr      string
	serveErr  chan error
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the replica's query-API listen address.
func (r *ReadReplica) Addr() string { return r.addr }

// Close stops the replica's server and follower. Idempotent —
// Deployment.Close also closes every replica it created.
func (r *ReadReplica) Close() error {
	r.closeOnce.Do(func() {
		r.closeErr = r.Server.Close()
		<-r.serveErr
		if ferr := r.Follower.Close(); r.closeErr == nil {
			r.closeErr = ferr
		}
	})
	return r.closeErr
}

// NewDeployment stands up a VO bank and starts its TLS server.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.VO == "" {
		return nil, errors.New("gridbank: deployment requires a VO name")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ca, err := pki.NewCA(cfg.VO+" CA", cfg.VO, 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	trust := pki.NewTrustStore(ca.Certificate())
	bankID, err := ca.Issue(pki.IssueOptions{CommonName: "gridbank", Organization: cfg.VO, IsServer: true})
	if err != nil {
		return nil, err
	}
	banker, err := ca.Issue(pki.IssueOptions{CommonName: "banker", Organization: cfg.VO})
	if err != nil {
		return nil, err
	}
	store, err := db.Open(cfg.Journal)
	if err != nil {
		return nil, err
	}
	bank, err := core.NewBank(store, core.BankConfig{
		Identity: bankID,
		Trust:    trust,
		Admins:   append([]string{banker.SubjectName()}, cfg.Admins...),
		Branch:   cfg.Branch,
		Now:      cfg.Now,
		DedupTTL: cfg.DedupTTL,
	})
	if err != nil {
		return nil, err
	}
	srv, err := core.NewServer(bank, bankID)
	if err != nil {
		return nil, err
	}
	srv.Logf = func(string, ...any) {} // deployments are quiet; wire Logf explicitly if needed
	cfg.applyLimits(srv)
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("gridbank: listen %s: %w", cfg.ListenAddr, err)
	}
	d := &Deployment{
		CA:       ca,
		Trust:    trust,
		Bank:     bank,
		Server:   srv,
		Banker:   banker,
		cfg:      cfg,
		bankID:   bankID,
		addr:     ln.Addr().String(),
		serveErr: make(chan error, 1),
		pubs:     make(map[int]*shardPublisher),
	}
	go func() { d.serveErr <- srv.Serve(ln) }()
	return d, nil
}

// Addr returns the server's listen address.
func (d *Deployment) Addr() string { return d.addr }

// NewUser issues an identity in the deployment's VO.
func (d *Deployment) NewUser(name string) (*Identity, error) {
	return d.CA.Issue(pki.IssueOptions{CommonName: name, Organization: voOf(d)})
}

func voOf(d *Deployment) string {
	orgs := d.CA.Certificate().Subject.Organization
	if len(orgs) > 0 {
		return orgs[0]
	}
	return ""
}

// Dial connects a client authenticated as id.
func (d *Deployment) Dial(id *Identity) (*Client, error) {
	c, err := core.Dial(d.addr, id, d.Trust)
	if err != nil {
		return nil, err
	}
	c.OfferCodecs = d.cfg.WireCodecs
	return c, nil
}

// DialProxy creates a short-lived proxy for id and connects with it —
// the paper's single sign-on flow.
func (d *Deployment) DialProxy(id *Identity, ttl time.Duration) (*Client, error) {
	proxy, err := pki.NewProxy(id, ttl)
	if err != nil {
		return nil, err
	}
	c, err := core.Dial(d.addr, proxy, d.Trust)
	if err != nil {
		return nil, err
	}
	c.OfferCodecs = d.cfg.WireCodecs
	return c, nil
}

// shardStores returns the per-shard stores (a single-element slice on
// an unsharded deployment).
func (d *Deployment) shardStores() []*db.Store {
	if d.sharded != nil {
		return d.sharded.Stores()
	}
	return []*db.Store{d.Bank.Ledger().Store()}
}

// EnableSharding repartitions a fresh deployment's ledger over n
// consistent-hash shards: shard 0 is the deployment's original store
// (keeping the configured journal and full byte compatibility for
// n = 1), shards 1..n-1 are volatile in-memory stores — the in-process
// deployment harness trades their durability for convenience;
// production sharding with one journal per shard is gridbankd's job
// (see -shards).
//
// It must be called before any accounts exist and before replication
// is enabled: resharding populated stores would strand accounts on
// shards their IDs no longer hash to, and that migration is not
// implemented. The bank and TLS server are rebuilt, so the
// deployment's address changes — call this immediately after
// NewDeployment, before handing out the address or dialing clients.
func (d *Deployment) EnableSharding(n int) error {
	if n < 1 {
		return fmt.Errorf("gridbank: shard count %d", n)
	}
	if d.sharded != nil {
		return errors.New("gridbank: sharding already enabled")
	}
	if len(d.pubs) > 0 || len(d.replicas) > 0 {
		return errors.New("gridbank: enable sharding before replication")
	}
	if d.usagePipe != nil {
		// EnableSharding rebuilds the bank over a new ledger; a pipeline
		// bound to the old one would settle into the wrong stores.
		return errors.New("gridbank: enable sharding before the usage pipeline")
	}
	if d.micropayPipe != nil {
		return errors.New("gridbank: enable sharding before the micropay pipeline")
	}
	meta := d.Bank.Ledger().Store()
	if cnt, err := meta.Count("accounts"); err != nil {
		return err
	} else if cnt > 0 && n > 1 {
		return errors.New("gridbank: cannot shard a deployment that already has accounts (resharding requires migration)")
	}
	stores := make([]*db.Store, n)
	stores[0] = meta
	for i := 1; i < n; i++ {
		stores[i] = db.MustOpenMemory()
	}
	led, err := shard.New(stores, shard.Config{Branch: branchOf(d.cfg), Now: d.cfg.Now})
	if err != nil {
		return err
	}
	bank, err := core.NewBankWithLedger(led, core.BankConfig{
		Identity: d.bankID,
		Trust:    d.Trust,
		Admins:   append([]string{d.Banker.SubjectName()}, d.cfg.Admins...),
		Branch:   branchOf(d.cfg),
		Now:      d.cfg.Now,
		DedupTTL: d.cfg.DedupTTL,
	})
	if err != nil {
		return err
	}
	srv, err := core.NewServer(bank, d.bankID)
	if err != nil {
		return err
	}
	srv.Logf = func(string, ...any) {}
	d.cfg.applyLimits(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := d.Server.Close(); err != nil {
		ln.Close()
		return err
	}
	<-d.serveErr
	d.sharded = led
	d.Bank = bank
	d.Server = srv
	d.addr = ln.Addr().String()
	d.serveErr = make(chan error, 1)
	go func() { d.serveErr <- srv.Serve(ln) }()
	return nil
}

func branchOf(cfg DeploymentConfig) string {
	if cfg.Branch == "" {
		return "0001"
	}
	return cfg.Branch
}

// Sharded returns the shard ledger, or nil on an unsharded deployment.
func (d *Deployment) Sharded() *shard.Ledger { return d.sharded }

// enablePipeline is what EnableUsage and EnableMicropay share: it is
// idempotent per deployment (slot holds the pipeline once built), opens
// the spool store over the configured journal and hands it to build,
// which constructs the pipeline and attaches it to the bank.
func enablePipeline[P any](slot **P, opts PipelineOptions, build func(spool *db.Store) (*P, error)) (*P, error) {
	if *slot != nil {
		return *slot, nil
	}
	spool, err := db.Open(opts.SpoolJournal)
	if err != nil {
		return nil, err
	}
	pipe, err := build(spool)
	if err != nil {
		return nil, err
	}
	*slot = pipe
	return pipe, nil
}

// EnableUsage attaches the batched asynchronous usage-settlement
// pipeline to the deployment's bank, opening the Usage.Submit /
// Usage.Status / Usage.Drain operations to clients. Call it after
// EnableSharding (the pipeline binds to the ledger's final shape) and
// before handing out the address. Idempotent per deployment.
func (d *Deployment) EnableUsage(opts UsageOptions) (*usage.Pipeline, error) {
	return enablePipeline(&d.usagePipe, opts, func(spool *db.Store) (*usage.Pipeline, error) {
		var led usage.Ledger
		if d.sharded != nil {
			led = usage.WrapSharded(d.sharded)
		} else {
			led = usage.WrapManager(d.Bank.Manager())
		}
		pipe, err := usage.New(usage.Config{
			Ledger:     led,
			Spool:      spool,
			BatchSize:  opts.BatchSize,
			Workers:    opts.Workers,
			MaxPending: opts.MaxPending,
			Now:        d.cfg.Now,
		})
		if err != nil {
			return nil, err
		}
		d.Bank.SetUsage(pipe)
		return pipe, nil
	})
}

// Usage returns the settlement pipeline, or nil when EnableUsage was
// not called.
func (d *Deployment) Usage() *usage.Pipeline { return d.usagePipe }

// MicropayOptions tune EnableMicropay. Alias of PipelineOptions (see
// UsageOptions).
type MicropayOptions = PipelineOptions

// EnableMicropay attaches the streaming GridHash redemption pipeline to
// the deployment's bank, opening the Micropay.Submit / Micropay.Status
// / Micropay.Drain operations to clients. The pipeline shares the
// bank's chain redeemer, so streamed claims and synchronous RedeemChain
// calls serialize per serial. Call it after EnableSharding and before
// handing out the address. Idempotent per deployment.
func (d *Deployment) EnableMicropay(opts MicropayOptions) (*micropay.Pipeline, error) {
	return enablePipeline(&d.micropayPipe, opts, func(spool *db.Store) (*micropay.Pipeline, error) {
		pipe, err := micropay.New(micropay.Config{
			Redeemer:    d.Bank.ChainRedeemer(),
			FindAccount: d.Bank.Ledger().FindByCertificate,
			Spool:       spool,
			BatchSize:   opts.BatchSize,
			Workers:     opts.Workers,
			MaxPending:  opts.MaxPending,
			Now:         d.cfg.Now,
		})
		if err != nil {
			return nil, err
		}
		d.Bank.SetMicropay(pipe)
		return pipe, nil
	})
}

// Micropay returns the streaming redemption pipeline, or nil when
// EnableMicropay was not called.
func (d *Deployment) Micropay() *micropay.Pipeline { return d.micropayPipe }

// enablePublisher starts (or returns) the WAL-shipping publisher for
// one shard's store.
func (d *Deployment) enablePublisher(shardIdx int) (*shardPublisher, error) {
	if sp, ok := d.pubs[shardIdx]; ok {
		return sp, nil
	}
	stores := d.shardStores()
	if shardIdx < 0 || shardIdx >= len(stores) {
		return nil, fmt.Errorf("gridbank: shard %d out of range [0,%d)", shardIdx, len(stores))
	}
	pub, err := replica.NewPublisher(replica.PublisherConfig{
		Store:       stores[shardIdx],
		Identity:    d.Bank.Identity(),
		Trust:       d.Trust,
		PrimaryAddr: d.addr,
		Heartbeat:   100 * time.Millisecond,
		WireCodecs:  d.cfg.WireCodecs,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp := &shardPublisher{pub: pub, addr: ln.Addr().String(), serveErr: make(chan error, 1)}
	d.pubs[shardIdx] = sp
	go func() { sp.serveErr <- pub.Serve(ln) }()
	return sp, nil
}

// EnableReplication starts the deployment's WAL-shipping publisher for
// shard 0 (the whole ledger when unsharded) on an ephemeral loopback
// port and returns its address. Idempotent.
func (d *Deployment) EnableReplication() (string, error) {
	return d.PublisherAddr(0)
}

// PublisherAddr starts (if needed) and returns the commit-stream
// publisher address for shard shardIdx. Harnesses that interpose a
// fault proxy on the replication link dial this address through the
// proxy and hand the proxy's address to AddShardReplicaAt.
func (d *Deployment) PublisherAddr(shardIdx int) (string, error) {
	sp, err := d.enablePublisher(shardIdx)
	if err != nil {
		return "", err
	}
	return sp.addr, nil
}

// AddReadReplica boots a read replica of shard 0 — the whole ledger on
// an unsharded deployment. See AddShardReplica for sharded topologies.
func (d *Deployment) AddReadReplica(name string) (*ReadReplica, error) {
	return d.AddShardReplica(name, 0)
}

// AddShardReplica boots a read replica named name following shard
// shardIdx: it bootstraps from that shard's commit stream (starting the
// shard's publisher if needed), then serves the query subset of the API
// for accounts on that shard from its own loopback address. Mutations
// redirect to the primary; reads for accounts on other shards answer
// wrong_shard with the placement parameters.
func (d *Deployment) AddShardReplica(name string, shardIdx int) (*ReadReplica, error) {
	sp, err := d.enablePublisher(shardIdx)
	if err != nil {
		return nil, err
	}
	return d.AddShardReplicaAt(name, shardIdx, sp.addr)
}

// AddShardReplicaAt is AddShardReplica with an explicit publisher
// address: the follower subscribes to publisherAddr instead of the
// shard's publisher directly, so a test can route the replication
// stream through a netsim proxy (the shard's real publisher must
// already be running — see PublisherAddr).
func (d *Deployment) AddShardReplicaAt(name string, shardIdx int, publisherAddr string) (*ReadReplica, error) {
	id, err := d.CA.Issue(pki.IssueOptions{CommonName: name, Organization: voOf(d), IsServer: true})
	if err != nil {
		return nil, err
	}
	fol, err := replica.StartFollower(replica.FollowerConfig{
		PublisherAddr: publisherAddr,
		Identity:      id,
		Trust:         d.Trust,
		RetryInterval: 100 * time.Millisecond,
		OfferCodecs:   d.cfg.WireCodecs,
	})
	if err != nil {
		return nil, err
	}
	if err := fol.WaitReady(10 * time.Second); err != nil {
		fol.Close()
		return nil, err
	}
	roCfg := core.ReadOnlyBankConfig{Identity: id, Trust: d.Trust}
	if d.sharded != nil {
		shards, vnodes := d.sharded.ShardTopology()
		if shards > 1 {
			roCfg.Shard = &core.ShardInfo{Index: shardIdx, Count: shards, Vnodes: vnodes}
		}
	}
	rb, err := core.NewReadOnlyBank(fol, roCfg)
	if err != nil {
		fol.Close()
		return nil, err
	}
	srv, err := core.NewReadOnlyServer(rb, id)
	if err != nil {
		fol.Close()
		return nil, err
	}
	srv.Logf = func(string, ...any) {}
	d.cfg.applyLimits(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fol.Close()
		return nil, err
	}
	r := &ReadReplica{
		Follower: fol,
		Server:   srv,
		Shard:    shardIdx,
		addr:     ln.Addr().String(),
		serveErr: make(chan error, 1),
	}
	go func() { r.serveErr <- srv.Serve(ln) }()
	d.replicas = append(d.replicas, r)
	return r, nil
}

// Replicas returns the deployment's read replicas, in creation order.
func (d *Deployment) Replicas() []*ReadReplica { return d.replicas }

// SyncReplicas blocks until every replica has applied its shard's
// current sequence — the barrier examples and tests use between a write
// and a replica read.
func (d *Deployment) SyncReplicas(timeout time.Duration) error {
	stores := d.shardStores()
	for _, r := range d.replicas {
		seq := stores[r.Shard].CurrentSeq()
		if err := r.Follower.WaitForSeq(seq, timeout); err != nil {
			return err
		}
	}
	return nil
}

// DialRouted connects a read-routing client authenticated as id: reads
// spread over every replica (within opts' staleness bound, and on
// sharded deployments within the account's shard pool), mutations and
// unroutable reads go to the primary.
func (d *Deployment) DialRouted(id *Identity, opts core.RouteOptions) (*core.RoutedClient, error) {
	primary, err := core.Dial(d.addr, id, d.Trust)
	if err != nil {
		return nil, err
	}
	primary.OfferCodecs = d.cfg.WireCodecs
	var reps []*Client
	for _, r := range d.replicas {
		c, err := core.Dial(r.Addr(), id, d.Trust)
		if err != nil {
			primary.Close()
			for _, rc := range reps {
				rc.Close()
			}
			return nil, err
		}
		c.OfferCodecs = d.cfg.WireCodecs
		reps = append(reps, c)
	}
	return core.NewRoutedClient(primary, reps, opts)
}

// Close stops the replicas, the publishers, then the server.
// Idempotent.
func (d *Deployment) Close() error {
	d.closeOnce.Do(func() {
		var firstErr error
		if d.usagePipe != nil {
			if err := d.usagePipe.Close(); firstErr == nil {
				firstErr = err
			}
		}
		if d.micropayPipe != nil {
			if err := d.micropayPipe.Close(); firstErr == nil {
				firstErr = err
			}
		}
		for _, r := range d.replicas {
			if err := r.Close(); firstErr == nil {
				firstErr = err
			}
		}
		d.replicas = nil
		for _, sp := range d.pubs {
			if err := sp.pub.Close(); firstErr == nil {
				firstErr = err
			}
			<-sp.serveErr
		}
		d.pubs = make(map[int]*shardPublisher)
		if err := d.Server.Close(); firstErr == nil {
			firstErr = err
		}
		<-d.serveErr
		d.closeErr = firstErr
	})
	return d.closeErr
}
