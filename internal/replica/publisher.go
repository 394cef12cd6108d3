package replica

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

// PublisherConfig configures a Publisher.
type PublisherConfig struct {
	// Store is the primary's ledger store (required).
	Store *db.Store
	// Identity is the TLS server identity replication is served under
	// (typically the bank's own identity). Required.
	Identity *pki.Identity
	// Trust verifies follower certificates. Required.
	Trust *pki.TrustStore
	// Allow restricts replication to these follower subjects. Empty
	// means any subject the trust store verifies may replicate — the
	// stream is the whole ledger, so production deployments should list
	// their replica identities here.
	Allow []string
	// PrimaryAddr is the client-facing API address of the primary,
	// advertised to followers so read-only servers can redirect
	// mutations.
	PrimaryAddr string
	// SubscriberBuffer is the per-follower commit buffer (batches); a
	// follower that falls further behind is disconnected and
	// re-bootstraps. Default 1024.
	SubscriberBuffer int
	// Heartbeat is the idle frame interval. Default 500ms.
	Heartbeat time.Duration
	// WireCodecs lists the codec names accepted when a follower offers
	// alternatives on its hello (see wire.Codec). Nil accepts every
	// supported codec; [wire.CodecJSON] pins sessions to the seed
	// format. Followers that never offer always stream JSON.
	WireCodecs []string
}

// Publisher serves the primary side of WAL shipping: each follower
// connection gets a bootstrap snapshot plus the live commit stream.
type Publisher struct {
	cfg PublisherConfig
	tls *tls.Config

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Log records session-level events; nil discards them. Reassign
	// only before Serve.
	Log *obs.Logger
}

// NewPublisher builds a replication publisher over the store.
func NewPublisher(cfg PublisherConfig) (*Publisher, error) {
	if cfg.Store == nil {
		return nil, errors.New("replica: publisher requires a store")
	}
	if cfg.Identity == nil || cfg.Trust == nil {
		return nil, errors.New("replica: publisher requires an identity and a trust store")
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = 1024
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	tcfg, err := pki.ServerTLSConfig(cfg.Identity, cfg.Trust)
	if err != nil {
		return nil, err
	}
	return &Publisher{
		cfg:   cfg,
		tls:   tcfg,
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts follower connections on ln until Close. It blocks.
func (p *Publisher) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("replica: publisher closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Register (and wg.Add) under the same lock Close holds while
		// tearing down, so a conn accepted during Close is dropped here
		// instead of leaking an untracked session.
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return nil
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.handleConn(conn)
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
		}()
	}
}

// Close stops accepting and tears down live replication sessions.
func (p *Publisher) Close() error {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}

// allowed reports whether subject may replicate.
func (p *Publisher) allowed(subject string) bool {
	if len(p.cfg.Allow) == 0 {
		return true
	}
	for _, s := range p.cfg.Allow {
		if s == subject {
			return true
		}
	}
	return false
}

func (p *Publisher) handleConn(raw net.Conn) {
	defer raw.Close()
	tconn := tls.Server(raw, p.tls)
	if err := tconn.HandshakeContext(context.Background()); err != nil {
		p.Log.Warn("replica handshake failed", "remote", raw.RemoteAddr(), "err", err)
		return
	}
	subject, err := pki.PeerSubject(p.cfg.Trust, tconn.ConnectionState())
	if err != nil {
		p.Log.Warn("replica peer verification failed", "remote", raw.RemoteAddr(), "err", err)
		return
	}
	conn := wire.NewConn(tconn)
	req, err := conn.ReadRequest()
	if err != nil {
		return
	}
	fail := func(code, msg string) {
		_ = conn.WriteResponse(&wire.Response{ID: req.ID, OK: false, Code: code, Error: msg})
	}
	if !p.allowed(subject) {
		p.Log.Warn("replica subject not in allow list", "subject", subject)
		fail(wire.CodeDenied, fmt.Sprintf("subject %s may not replicate", subject))
		return
	}
	if req.Op != opHello {
		fail(wire.CodeInvalid, fmt.Sprintf("replication expects %s, got %q", opHello, req.Op))
		return
	}
	var hello helloRequest
	if err := wire.Decode(req.Body, &hello); err != nil {
		fail(wire.CodeInvalid, err.Error())
		return
	}
	// Codec negotiation piggybacks on the hello: the confirmation rides
	// the (JSON) hello response, and every stream frame after it uses
	// the agreed codec. The follower reads nothing between sending the
	// hello and seeing the confirmation, so the switch is unambiguous.
	codec := wire.Codec(wire.JSON)
	var confirm string
	if len(req.Codecs) > 0 {
		accept := p.cfg.WireCodecs
		if accept == nil {
			accept = []string{wire.CodecBin1, wire.CodecJSON}
		}
		if c, ok := wire.NegotiateCodec(req.Codecs, accept); ok {
			codec = c
			confirm = c.Name()
		}
	}

	// Subscribe BEFORE snapshotting: entries sequenced after the cut are
	// then guaranteed to be in the buffer, making snapshot+stream a
	// gapless history.
	sub, err := p.cfg.Store.SubscribeCommits(p.cfg.SubscriberBuffer)
	if err != nil {
		fail(wire.CodeInternal, err.Error())
		return
	}
	defer sub.Close()
	after := hello.AfterSeq
	if hello.Epoch != p.cfg.Store.InstanceID() {
		// The follower's sequence belongs to another primary epoch
		// (pre-restart history it may have outrun): not resumable.
		after = 0
	}
	snap, err := p.cfg.Store.SnapshotSince(after)
	if err != nil {
		fail(wire.CodeInternal, err.Error())
		return
	}
	body, err := wire.Encode(&helloResponse{
		Snapshot:    snap,
		HeadSeq:     p.cfg.Store.CurrentSeq(),
		Epoch:       p.cfg.Store.InstanceID(),
		PrimaryAddr: p.cfg.PrimaryAddr,
	})
	if err != nil {
		fail(wire.CodeInternal, err.Error())
		return
	}
	if err := conn.WriteResponse(&wire.Response{ID: req.ID, OK: true, Codec: confirm, Body: body}); err != nil {
		return
	}
	// The hello response (carrying the confirmation) went out in JSON;
	// everything after it — stream frames and the stream-lost notice —
	// uses the agreed codec.
	conn.SetWriteCodec(codec)
	from := after
	if snap != nil {
		from = snap.Seq
	}
	p.Log.Info("replica streaming", "subject", subject, "from_seq", from, "snapshot", snap != nil, "codec", codec.Name())
	p.stream(tconn, conn, sub, codec)
	p.Log.Info("replica session ended", "subject", subject, "err", sub.Err())
}

// stream pumps the subscription (plus heartbeats) to the follower until
// either side fails. A follower catching up through a backlog gets
// batches coalesced into fewer, larger frames. Every frame write
// carries a deadline: a wedged follower (open socket, zero window) must
// error the session out, not pin its goroutine and buffers forever.
func (p *Publisher) stream(raw net.Conn, conn *wire.Conn, sub *db.CommitSub, codec wire.Codec) {
	hb := time.NewTicker(p.cfg.Heartbeat)
	defer hb.Stop()
	writeTimeout := 10 * p.cfg.Heartbeat
	if writeTimeout < 5*time.Second {
		writeTimeout = 5 * time.Second
	}
	// Frames go out through the shared deadline-armed single-write path:
	// header+body in one TLS record, wedged followers error out.
	dw := &wire.DeadlineWriter{Conn: raw, Timeout: writeTimeout}
	var id uint64
	send := func(entries []db.Entry) error {
		id++
		body, err := wire.EncodeWith(codec, &streamFrame{Entries: entries, HeadSeq: p.cfg.Store.CurrentSeq()})
		if err != nil {
			return err
		}
		return codec.Encode(dw, &wire.Response{ID: id, OK: true, Body: body})
	}
	for {
		select {
		case batch, ok := <-sub.C():
			if !ok {
				// Slow subscriber, store closed, or journal failure:
				// tell the follower why, then drop the session — it
				// will re-bootstrap.
				err := sub.Err()
				if err == nil {
					err = io.EOF
				}
				id++
				_ = conn.WriteResponse(&wire.Response{ID: id, OK: false, Code: wire.CodeStreamLost, Error: err.Error()})
				return
			}
			entries := batch
			// Coalesce a backlog into one frame (bounded).
		drain:
			for len(entries) < coalesceEntries {
				select {
				case more, ok := <-sub.C():
					if !ok {
						break drain
					}
					entries = append(entries[:len(entries):len(entries)], more...)
				default:
					break drain
				}
			}
			if err := send(entries); err != nil {
				return
			}
		case <-hb.C:
			if err := send(nil); err != nil {
				return
			}
		}
	}
}
