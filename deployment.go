package gridbank

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/micropay"
	"gridbank/internal/node"
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

// Deployment is a complete single-VO GridBank: CA, trust store, an
// administrator identity, and a node — bank, TLS server, optional
// pipelines, publishers and read replicas — booted through
// internal/node, the same assembly gridbankd serves from. What a
// Deployment adds is the VO bootstrap, ephemeral loopback listeners and
// volatile stores, so examples, tests and experiments stand up a
// working Grid bank in one call.
type Deployment struct {
	CA     *CA
	Trust  *TrustStore
	Bank   *Bank
	Server *Server
	// Banker is the built-in administrator identity.
	Banker *Identity

	ncfg      node.Config // what the node was last opened with
	node      *node.Node
	closeOnce sync.Once
	closeErr  error

	pubAddrs map[int]string // shard index -> commit-stream publisher address
	replicas []*ReadReplica
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
}

// UsageOptions tune EnableUsage. Alias of PipelineOptions: existing
// composite literals keep compiling, and harness code can build one
// option set and pass it to both pipelines.
type UsageOptions = PipelineOptions

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

	addr string
	rep  *node.Replica
}

// Addr returns the replica's query-API listen address.
func (r *ReadReplica) Addr() string { return r.addr }

// Close stops the replica's server and follower. Idempotent —
// Deployment.Close also closes every replica it created.
func (r *ReadReplica) Close() error { return r.rep.Close() }

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
	d := &Deployment{
		CA:     ca,
		Trust:  trust,
		Banker: banker,
		ncfg: node.Config{
			Journal:     cfg.Journal,
			Identity:    bankID,
			Trust:       trust,
			Admins:      append([]string{banker.SubjectName()}, cfg.Admins...),
			Branch:      cfg.Branch,
			DedupTTL:    cfg.DedupTTL,
			Now:         cfg.Now,
			MaxConns:    cfg.MaxConns,
			IdleTimeout: cfg.IdleTimeout,
			MaxInFlight: cfg.MaxInFlight,
			WireCodecs:  cfg.WireCodecs,
			Heartbeat:   100 * time.Millisecond,
		},
		pubAddrs: make(map[int]string),
	}
	if err := d.boot(cfg.ListenAddr); err != nil {
		return nil, err
	}
	return d, nil
}

// boot opens the node described by d.ncfg and serves it on listenAddr.
func (d *Deployment) boot(listenAddr string) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("gridbank: listen %s: %w", listenAddr, err)
	}
	d.ncfg.PrimaryAddr = ln.Addr().String()
	n, err := node.Open(d.ncfg)
	if err != nil {
		ln.Close()
		return err
	}
	d.node, d.Bank, d.Server = n, n.Bank(), n.Server()
	go n.Serve(ln)
	return nil
}

// Addr returns the server's listen address.
func (d *Deployment) Addr() string { return d.ncfg.PrimaryAddr }

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
	c, err := core.Dial(d.Addr(), id, d.Trust)
	if err != nil {
		return nil, err
	}
	c.OfferCodecs = d.ncfg.WireCodecs
	return c, nil
}

// DialProxy creates a short-lived proxy for id and connects with it —
// the paper's single sign-on flow.
func (d *Deployment) DialProxy(id *Identity, ttl time.Duration) (*Client, error) {
	proxy, err := pki.NewProxy(id, ttl)
	if err != nil {
		return nil, err
	}
	c, err := core.Dial(d.Addr(), proxy, d.Trust)
	if err != nil {
		return nil, err
	}
	c.OfferCodecs = d.ncfg.WireCodecs
	return c, nil
}

// EnableSharding repartitions a fresh deployment's ledger over n
// consistent-hash shards, every one a volatile in-memory store — the
// in-process harness trades durability for convenience; production
// sharding with one journal per shard is gridbankd's job (see -shards).
// A deployment is a 1-shard ledger from the start, so n = 1 changes
// nothing (and keeps a configured Journal byte-compatible); n > 1
// reboots the node on the new shard count.
//
// It must be called before any accounts exist and before pipelines or
// replication are enabled: resharding populated stores would strand
// accounts on shards their IDs no longer hash to, and that migration is
// not implemented. The node is rebooted, so the deployment's address,
// Bank and Server change — call this immediately after NewDeployment,
// before handing out the address or dialing clients.
func (d *Deployment) EnableSharding(n int) error {
	if n < 1 {
		return fmt.Errorf("gridbank: shard count %d", n)
	}
	if d.ncfg.Shards != 0 {
		return errors.New("gridbank: sharding already enabled")
	}
	if len(d.pubAddrs) > 0 || len(d.replicas) > 0 {
		return errors.New("gridbank: enable sharding before replication")
	}
	if d.node.Usage() != nil || d.node.Micropay() != nil {
		// The reboot builds a new ledger; a pipeline bound to the old one
		// would settle into the wrong stores.
		return errors.New("gridbank: enable sharding before the usage and micropay pipelines")
	}
	if n > 1 {
		if cnt, err := d.Bank.Ledger().Store().Count("accounts"); err != nil {
			return err
		} else if cnt > 0 {
			return errors.New("gridbank: cannot shard a deployment that already has accounts (resharding requires migration)")
		}
		if d.ncfg.Journal != nil {
			return errors.New("gridbank: a journal-backed deployment holds one shard (durable sharding is gridbankd -shards)")
		}
		if err := d.node.Close(); err != nil {
			return err
		}
		d.ncfg.Shards = n
		return d.boot("127.0.0.1:0")
	}
	d.ncfg.Shards = n
	return nil
}

// Sharded returns the deployment's shard ledger: one shard until
// EnableSharding repartitions it.
func (d *Deployment) Sharded() *shard.Ledger { return d.node.Ledger() }

// EnableUsage attaches the batched asynchronous usage-settlement
// pipeline to the deployment's bank, opening the Usage.Submit /
// Usage.Status / Usage.Drain operations to clients. Call it after
// EnableSharding (the pipeline binds to the ledger's final shape) and
// before handing out the address. Idempotent per deployment.
func (d *Deployment) EnableUsage(opts UsageOptions) (*usage.Pipeline, error) {
	return d.node.EnableUsage(usage.Config{BatchSize: opts.BatchSize, Workers: opts.Workers, MaxPending: opts.MaxPending})
}

// Usage returns the settlement pipeline, or nil when EnableUsage was
// not called.
func (d *Deployment) Usage() *usage.Pipeline { return d.node.Usage() }

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
	return d.node.EnableMicropay(micropay.Config{BatchSize: opts.BatchSize, Workers: opts.Workers, MaxPending: opts.MaxPending})
}

// Micropay returns the streaming redemption pipeline, or nil when
// EnableMicropay was not called.
func (d *Deployment) Micropay() *micropay.Pipeline { return d.node.Micropay() }

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
	if addr, ok := d.pubAddrs[shardIdx]; ok {
		return addr, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if err := d.node.Publish(shardIdx, ln); err != nil {
		ln.Close()
		return "", err
	}
	d.pubAddrs[shardIdx] = ln.Addr().String()
	return d.pubAddrs[shardIdx], nil
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
	addr, err := d.PublisherAddr(shardIdx)
	if err != nil {
		return nil, err
	}
	return d.AddShardReplicaAt(name, shardIdx, addr)
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
	rcfg := d.ncfg
	rcfg.Identity, rcfg.ReplicaOf, rcfg.Shard, rcfg.PrimaryAddr = id, publisherAddr, shardIdx, ""
	rep, err := node.OpenReplica(rcfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rep.Close()
		return nil, err
	}
	r := &ReadReplica{Follower: rep.Follower(), Server: rep.Server(), Shard: shardIdx, addr: ln.Addr().String(), rep: rep}
	go rep.Serve(ln)
	d.replicas = append(d.replicas, r)
	return r, nil
}

// Replicas returns the deployment's read replicas, in creation order.
func (d *Deployment) Replicas() []*ReadReplica { return d.replicas }

// SyncReplicas blocks until every replica has applied its shard's
// current sequence — the barrier examples and tests use between a write
// and a replica read.
func (d *Deployment) SyncReplicas(timeout time.Duration) error {
	for _, r := range d.replicas {
		seq := d.node.Ledger().ShardStore(r.Shard).CurrentSeq()
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
	primary, err := core.Dial(d.Addr(), id, d.Trust)
	if err != nil {
		return nil, err
	}
	primary.OfferCodecs = d.ncfg.WireCodecs
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
		c.OfferCodecs = d.ncfg.WireCodecs
		reps = append(reps, c)
	}
	return core.NewRoutedClient(primary, reps, opts)
}

// Close stops the replicas, then the node: server, publishers,
// pipelines and every store. Idempotent.
func (d *Deployment) Close() error {
	d.closeOnce.Do(func() {
		for _, r := range d.replicas {
			if err := r.Close(); d.closeErr == nil {
				d.closeErr = err
			}
		}
		d.replicas = nil
		if err := d.node.Close(); d.closeErr == nil {
			d.closeErr = err
		}
	})
	return d.closeErr
}
