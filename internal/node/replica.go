package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/db"
	"gridbank/internal/replica"
	"gridbank/internal/shard"
	"gridbank/internal/wire"
)

// replicaReadyTimeout bounds OpenReplica's wait for the first bootstrap.
const replicaReadyTimeout = 30 * time.Second

// Replica is one assembled read replica: a follower mirroring one
// primary store (the whole ledger, or cfg.Shard of cfg.Shards) behind a
// read-only server that answers the query API and redirects mutations
// to the primary.
type Replica struct {
	follower *replica.Follower
	server   *core.Server

	closeOnce sync.Once
	closeErr  error
}

// OpenReplica follows the publisher at cfg.ReplicaOf, waits for the
// first bootstrap and builds the read-only server over the mirror. Like
// Open it binds nothing: hand Serve a listener.
func OpenReplica(cfg Config) (_ *Replica, err error) {
	fol, err := replica.StartFollower(replica.FollowerConfig{
		PublisherAddr: cfg.ReplicaOf,
		Identity:      cfg.Identity,
		Trust:         cfg.Trust,
		RetryInterval: cfg.Heartbeat,
		OfferCodecs:   followerOffers(cfg.WireCodecs),
		Log:           cfg.Log,
		Obs:           cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			fol.Close()
		}
	}()
	if err := fol.WaitReady(replicaReadyTimeout); err != nil {
		return nil, err
	}
	roCfg := core.ReadOnlyBankConfig{
		Identity:    cfg.Identity,
		Trust:       cfg.Trust,
		PrimaryAddr: cfg.PrimaryAddr,
		Obs:         cfg.Obs,
	}
	if cfg.Shards > 1 {
		roCfg.Shard = &core.ShardInfo{Index: cfg.Shard, Count: cfg.Shards}
		// The publisher ports are consecutive per shard, so a Shard that
		// disagrees with ReplicaOf would serve false not_found for every
		// real account: refuse it while it is still a boot error.
		if err := checkShardIndex(fol.Store(), cfg.Shard, cfg.Shards); err != nil {
			return nil, err
		}
	}
	rb, err := core.NewReadOnlyBank(fol, roCfg)
	if err != nil {
		return nil, err
	}
	srv, err := core.NewReadOnlyServer(rb, cfg.Identity)
	if err != nil {
		return nil, err
	}
	cfg.applyServer(srv)
	return &Replica{follower: fol, server: srv}, nil
}

// Follower returns the replication follower (progress, WaitForSeq).
func (r *Replica) Follower() *replica.Follower { return r.follower }

// Server returns the read-only API server.
func (r *Replica) Server() *core.Server { return r.server }

// Serve answers the query API on ln until Close. It blocks.
func (r *Replica) Serve(ln net.Listener) error { return r.server.Serve(ln) }

// Close stops the server, then the follower. Idempotent.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		r.closeErr = errors.Join(r.server.Close(), r.follower.Close())
	})
	return r.closeErr
}

// followerOffers maps the node's codec policy to the follower's hello
// offer: pinned-to-JSON sends no offer at all, keeping the hello
// byte-identical to the seed protocol.
func followerOffers(codecs []string) []string {
	if len(codecs) == 1 && codecs[0] == wire.CodecJSON {
		return nil
	}
	return codecs
}

// checkShardIndex verifies that the accounts a shard replica mirrored
// hash to the shard it claims to serve. An empty store proves nothing
// and passes.
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
