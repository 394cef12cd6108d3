package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/tls"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/obs"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/wire"
)

// RemoteError is a failure reported by the GridBank server.
type RemoteError struct {
	Code    string
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("gridbank server: %s (%s)", e.Message, e.Code)
}

// IsRemoteCode reports whether err is a RemoteError with the given code.
func IsRemoteCode(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// Client is the GridBank client: the transport beneath both the GridBank
// Payment Module (consumer side, §3.3/§5.3) and the GridBank Charging
// Module's redemption calls (provider side). It authenticates with a
// proxy or identity certificate and pipelines requests over one TLS
// connection, reconnecting on demand.
//
// The connection is multiplexed: each call registers an in-flight entry
// keyed by its request ID, sends under a short write lock, and parks on
// a per-call channel while a single reader goroutine demuxes responses
// by ID — concurrent callers share the connection without serializing
// their round trips. A transport error fails every in-flight call; the
// next call redials.
type Client struct {
	addr string
	cfg  *tls.Config

	mu   sync.Mutex
	conn *clientConn
	next uint64

	// DialTimeout bounds connection establishment (default 10s).
	DialTimeout time.Duration

	// CallTimeout bounds each request/response exchange. Zero selects
	// DefaultCallTimeout; negative disables the deadline (a caller that
	// truly wants to park forever must say so). The budget rides the
	// request header as deadline_ms so the server can shed work whose
	// caller has already given up. A timed-out call fails alone — the
	// connection and its sibling in-flight calls stay healthy, and a
	// late response is discarded instead of treated as a protocol
	// violation.
	CallTimeout time.Duration

	// OfferCodecs lists wire codecs to offer the server at dial time, in
	// preference order (e.g. [wire.CodecBin1, wire.CodecJSON]). When it
	// names anything beyond the seed JSON codec, each fresh connection
	// starts with a blocking Ping that carries the offer; if the server
	// confirms a codec, both directions switch to it before any other
	// traffic. Empty (the default) skips the handshake entirely — every
	// frame stays byte-identical to the seed protocol, and seed servers
	// interoperate unmodified (they ignore the unknown offer field and
	// the connection stays JSON). Set before the first call.
	OfferCodecs []string

	// Obs instruments the client (per-op call latency, in-flight calls,
	// send-batch sizes, call timeouts). Nil disables. Set before the
	// first call.
	Obs *obs.Registry
	// TraceCalls stamps every outgoing request with a fresh trace ID in
	// the optional wire trace header (untraced requests stay
	// byte-identical to seed framing). Calls carrying an explicit trace
	// — RoutedClient pins one ID per logical operation — keep theirs.
	// Set before the first call.
	TraceCalls bool

	metOnce sync.Once
	met     *clientMetrics
}

// clientMetrics mirrors serverMetrics on the calling side: handles
// resolved once, nil no-ops when Obs is unset.
type clientMetrics struct {
	inflight  *obs.Gauge
	timeouts  *obs.Counter
	sendBatch *obs.Histogram
	opLatency map[string]*obs.Histogram

	reg *obs.Registry
	mu  sync.RWMutex
}

func (m *clientMetrics) latencyFor(op string) *obs.Histogram {
	if m.reg == nil {
		return nil
	}
	m.mu.RLock()
	h := m.opLatency[op]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	h = m.reg.Histogram("client.call." + op + ".latency")
	m.mu.Lock()
	m.opLatency[op] = h
	m.mu.Unlock()
	return h
}

func (c *Client) metrics() *clientMetrics {
	c.metOnce.Do(func() {
		m := &clientMetrics{opLatency: make(map[string]*obs.Histogram), reg: c.Obs}
		if c.Obs != nil {
			m.inflight = c.Obs.Gauge("client.inflight")
			m.timeouts = c.Obs.Counter("client.timeouts")
			m.sendBatch = c.Obs.Histogram("client.send_batch")
		}
		c.met = m
	})
	return c.met
}

// DefaultCallTimeout is the per-call deadline when Client.CallTimeout
// is zero. Generous: it exists to unstick callers whose response was
// lost, not to police slow operations.
const DefaultCallTimeout = 2 * time.Minute

// ErrCallTimeout marks a call abandoned at its deadline with the
// outcome unknown: the request may or may not have executed. Retry is
// safe only for idempotent or idempotency-keyed operations.
var ErrCallTimeout = errors.New("core: call deadline exceeded awaiting response")

// forgottenMax caps abandoned-call tombstones per connection. A peer
// that never answers would otherwise grow the set without bound; past
// the cap the connection is declared dead and redialed.
const forgottenMax = 1024

// callResult is what the reader goroutine (or a connection failure)
// delivers to a parked caller.
type callResult struct {
	resp *wire.Response
	err  error
}

// clientConn is one live pipelined connection: the in-flight demux map
// plus the coalescing write half. A Client replaces it wholesale on
// redial so late responses from a dying connection can never reach a
// new connection's callers.
//
// Writes use leader-based group flushing (the group-commit trick on the
// send side): a caller appends its frame to the shared buffer and, if
// no flush is running, becomes the flusher — writing every queued frame
// in one syscall / TLS record; otherwise it parks until the flush
// carrying its bytes completes. Under N concurrent callers this turns N
// per-request writes into a few batched ones.
type clientConn struct {
	nc  net.Conn
	wc  *wire.Conn
	met *clientMetrics
	// codec is the negotiated wire codec (wire.JSON when no negotiation
	// happened). Fixed before the connection is handed to callers, so
	// send and body encoding read it without synchronization.
	codec wire.Codec

	wmu     sync.Mutex
	wcond   *sync.Cond    // flush completion signal; guarded by wmu
	wbuf    *bytes.Buffer // frames awaiting flush
	wframes int64         // frames queued in wbuf (send-batch metric)
	wgen    uint64        // generation of wbuf
	wdone   uint64        // latest generation fully written
	wbusy   bool          // a flusher is running
	spare   *bytes.Buffer // the flusher's swap buffer
	werr    error         // first write-path error

	mu      sync.Mutex
	pending map[uint64]chan callResult
	forgot  map[uint64]struct{} // IDs abandoned at their deadline; late responses are dropped
	err     error               // first transport error; set before failing pending
}

// errNotSent marks a send failure that happened before any byte was
// queued for the wire (e.g. a frame past MaxFrame): the connection is
// intact and only the offending call should fail.
type errNotSent struct{ err error }

func (e *errNotSent) Error() string { return e.err.Error() }
func (e *errNotSent) Unwrap() error { return e.err }

// send queues one request frame and returns once it is on the wire
// (possibly batched with other callers' frames).
func (cc *clientConn) send(req *wire.Request) error {
	cc.wmu.Lock()
	if cc.werr != nil {
		err := cc.werr
		cc.wmu.Unlock()
		return err
	}
	if err := cc.codec.AppendFrame(cc.wbuf, req); err != nil {
		// AppendFrame restored the buffer: nothing of this frame will
		// ever reach the wire, so the connection (and every sibling
		// in-flight call) is unaffected.
		cc.wmu.Unlock()
		return &errNotSent{err}
	}
	cc.wframes++
	gen := cc.wgen
	if cc.wbusy {
		// A flusher is running; it will pick this frame up on its next
		// sweep. Park until the sweep carrying generation gen lands.
		for cc.werr == nil && cc.wdone < gen {
			cc.wcond.Wait()
		}
		err := cc.werr
		cc.wmu.Unlock()
		return err
	}
	cc.wbusy = true
	for cc.werr == nil && cc.wbuf.Len() > 0 {
		stolen, stolenGen := cc.wbuf, cc.wgen
		cc.met.sendBatch.Observe(cc.wframes)
		cc.wframes = 0
		cc.wbuf = cc.spare
		cc.spare = nil
		cc.wgen++
		cc.wmu.Unlock()
		_, err := cc.nc.Write(stolen.Bytes())
		stolen.Reset()
		if stolen.Cap() > writerBufMax {
			stolen = &bytes.Buffer{} // release a one-off giant batch
		}
		cc.wmu.Lock()
		cc.spare = stolen
		if err != nil {
			cc.werr = err
		}
		cc.wdone = stolenGen
		cc.wcond.Broadcast()
	}
	cc.wbusy = false
	err := cc.werr
	cc.wmu.Unlock()
	return err
}

// Dial creates a client for the GridBank server at addr, authenticating
// as the given identity (typically a user proxy, preserving single
// sign-on) and trusting servers signed by the trust store's CAs.
func Dial(addr string, id *pki.Identity, ts *pki.TrustStore) (*Client, error) {
	cfg, err := pki.ClientTLSConfig(id, ts)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, cfg: cfg, DialTimeout: 10 * time.Second}, nil
}

// Clone returns an unconnected client for the same address, identity
// and trust configuration — the building block for connection pools.
// Telemetry configuration (Obs, TraceCalls) carries over so pooled
// clones report into the same registry.
func (c *Client) Clone() *Client {
	return &Client{
		addr: c.addr, cfg: c.cfg,
		DialTimeout: c.DialTimeout, CallTimeout: c.CallTimeout,
		Obs: c.Obs, TraceCalls: c.TraceCalls,
		OfferCodecs: c.OfferCodecs,
	}
}

// dialLocked establishes the connection and starts its reader. Called
// with c.mu held.
func (c *Client) dialLocked() error {
	d := net.Dialer{Timeout: c.DialTimeout}
	raw, err := d.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("core: dial %s: %w", c.addr, err)
	}
	tconn := tls.Client(raw, c.cfg)
	ctx, cancel := context.WithTimeout(context.Background(), c.DialTimeout)
	defer cancel()
	if err := tconn.HandshakeContext(ctx); err != nil {
		raw.Close()
		return fmt.Errorf("core: tls handshake with %s: %w", c.addr, err)
	}
	cc := &clientConn{
		nc:      tconn,
		wc:      wire.NewConn(tconn),
		met:     c.metrics(),
		codec:   wire.JSON,
		wbuf:    &bytes.Buffer{},
		spare:   &bytes.Buffer{},
		pending: make(map[uint64]chan callResult),
	}
	cc.wcond = sync.NewCond(&cc.wmu)
	if err := c.negotiateLocked(cc); err != nil {
		tconn.Close()
		return err
	}
	c.conn = cc
	go c.readLoop(cc)
	return nil
}

// negotiateLocked runs the first-frame codec handshake on a fresh
// connection, before the reader starts and before any caller can see
// it — which is what makes the codec switch race-free: no other frame
// is in flight in either direction. The offer rides a Ping (allowed
// through the server's §3.2 gate pre-authorization); a seed server
// ignores the unknown field and answers a plain Ping, leaving the
// connection on the seed JSON codec. Called with c.mu held.
func (c *Client) negotiateLocked(cc *clientConn) error {
	if !offersNonJSON(c.OfferCodecs) {
		return nil
	}
	if c.DialTimeout > 0 {
		_ = cc.nc.SetDeadline(time.Now().Add(c.DialTimeout))
		defer func() { _ = cc.nc.SetDeadline(time.Time{}) }()
	}
	c.next++
	req := &wire.Request{ID: c.next, Op: OpPing, Codecs: c.OfferCodecs}
	if err := cc.wc.WriteRequest(req); err != nil {
		return fmt.Errorf("core: codec offer to %s: %w", c.addr, err)
	}
	resp, err := cc.wc.ReadResponse()
	if err != nil {
		return fmt.Errorf("core: codec offer to %s: %w", c.addr, err)
	}
	if resp.ID != req.ID {
		return fmt.Errorf("core: codec offer to %s: response for unknown request %d", c.addr, resp.ID)
	}
	if resp.Codec == "" {
		return nil // no agreement (seed server, or codec disabled): stay JSON
	}
	codec, ok := wire.CodecByName(resp.Codec)
	if !ok {
		return fmt.Errorf("core: server %s confirmed unknown codec %q", c.addr, resp.Codec)
	}
	// The server switched its read half right after our offer and its
	// write half right after this confirmation, so from the next frame
	// on both directions speak the negotiated codec.
	cc.wc.SetReadCodec(codec)
	cc.wc.SetWriteCodec(codec)
	cc.codec = codec
	return nil
}

// offersNonJSON reports whether a codec offer could change anything —
// i.e. names a codec other than the seed JSON one.
func offersNonJSON(offers []string) bool {
	for _, name := range offers {
		if name != wire.CodecJSON {
			return true
		}
	}
	return false
}

// readLoop demuxes responses to parked callers until the connection
// fails. An unmatched response ID is a protocol violation and fails the
// connection — the demux map must never be left guessing — unless the
// ID belongs to a call abandoned at its deadline, whose late response
// is expected and silently dropped.
func (c *Client) readLoop(cc *clientConn) {
	for {
		resp, err := cc.wc.ReadResponse()
		if err != nil {
			c.fail(cc, fmt.Errorf("core: receive: %w", err))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		} else if _, late := cc.forgot[resp.ID]; late {
			delete(cc.forgot, resp.ID)
			cc.mu.Unlock()
			continue
		}
		cc.mu.Unlock()
		if !ok {
			c.fail(cc, fmt.Errorf("core: response for unknown request %d", resp.ID))
			return
		}
		ch <- callResult{resp: resp}
	}
}

// fail marks cc dead, fans the error out to every in-flight call and
// detaches cc from the client so the next call redials. Idempotent:
// only the first error wins, and entries registered after it are
// refused at registration instead of stranded.
func (c *Client) fail(cc *clientConn, err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	failed := cc.pending
	cc.pending = make(map[uint64]chan callResult)
	cc.mu.Unlock()
	cc.nc.Close()
	c.mu.Lock()
	if c.conn == cc {
		c.conn = nil
	}
	c.mu.Unlock()
	for _, ch := range failed {
		ch <- callResult{err: err}
	}
}

// register ensures a live connection and claims an in-flight slot for a
// fresh request ID.
func (c *Client) register() (*clientConn, uint64, chan callResult, error) {
	c.mu.Lock()
	if c.conn == nil {
		if err := c.dialLocked(); err != nil {
			c.mu.Unlock()
			return nil, 0, nil, err
		}
	}
	cc := c.conn
	c.next++
	id := c.next
	c.mu.Unlock()
	ch := make(chan callResult, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		// fail() marks the connection dead before it detaches it; detach
		// here too, so the call after this one redials instead of
		// meeting the same dead connection again.
		c.mu.Lock()
		if c.conn == cc {
			c.conn = nil
		}
		c.mu.Unlock()
		return nil, 0, nil, err
	}
	cc.pending[id] = ch
	cc.mu.Unlock()
	return cc, id, ch, nil
}

// Close tears down the connection, failing any in-flight calls.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.conn
	c.conn = nil
	c.mu.Unlock()
	if cc == nil {
		return nil
	}
	c.fail(cc, errors.New("core: client closed"))
	return nil
}

// callDeadline resolves the effective per-call budget: an explicit
// override wins, else the client default, else DefaultCallTimeout.
// Negative anywhere means "no deadline".
func (c *Client) callDeadline(override time.Duration) time.Duration {
	d := override
	if d == 0 {
		d = c.CallTimeout
	}
	if d == 0 {
		d = DefaultCallTimeout
	}
	if d < 0 {
		return 0
	}
	return d
}

// call performs one pipelined request/response exchange. A transport
// error fails every call in flight on the connection (next call
// redials).
func (c *Client) call(op string, in, out any) error {
	return c.callWithTimeout(op, in, out, 0)
}

// callWithTimeout is call with an explicit deadline override (zero:
// client default; negative: none). On timeout the call fails alone
// with ErrCallTimeout: its demux entry becomes a tombstone so the late
// response is dropped rather than wedging or killing the connection.
func (c *Client) callWithTimeout(op string, in, out any, timeout time.Duration) error {
	return c.callTraced(op, in, out, timeout, "")
}

// callTraced is callWithTimeout with an explicit trace ID. Empty trace
// with TraceCalls set stamps a fresh ID; a non-empty trace — how
// RoutedClient pins one ID per logical operation across retries and
// shard redirects — is carried verbatim.
func (c *Client) callTraced(op string, in, out any, timeout time.Duration, trace string) error {
	met := c.metrics()
	met.inflight.Inc()
	start := time.Now()
	defer func() {
		met.inflight.Dec()
		met.latencyFor(op).ObserveDuration(time.Since(start))
	}()
	d := c.callDeadline(timeout)
	cc, id, ch, err := c.register()
	if err != nil {
		return err
	}
	// Encode the body after the connection is known: a negotiated
	// connection uses the binary form for hot-op payloads, a seed
	// connection the JSON form, byte-identical to before.
	var body []byte
	if in != nil {
		raw, err := wire.EncodeWith(cc.codec, in)
		if err != nil {
			// Nothing was queued: withdraw this call's in-flight entry
			// and leave the connection alone.
			cc.mu.Lock()
			delete(cc.pending, id)
			cc.mu.Unlock()
			return err
		}
		body = raw
	}
	if trace == "" && c.TraceCalls {
		trace = obs.NewTraceID()
	}
	req := &wire.Request{ID: id, Op: op, Trace: trace, Body: body}
	if d > 0 {
		if ms := int64(d / time.Millisecond); ms > 0 {
			req.DeadlineMS = ms
		} else {
			req.DeadlineMS = 1
		}
	}
	if err := cc.send(req); err != nil {
		var local *errNotSent
		if errors.As(err, &local) {
			// Never queued: withdraw this call's in-flight entry and
			// leave the connection (and its sibling calls) alone.
			cc.mu.Lock()
			delete(cc.pending, id)
			cc.mu.Unlock()
			return fmt.Errorf("core: send %s: %w", op, local.err)
		}
		// A partial batch may be on the wire: the whole connection is
		// compromised, not just this call.
		c.fail(cc, fmt.Errorf("core: send %s: %w", op, err))
		return fmt.Errorf("core: send %s: %w", op, err)
	}
	finish := func(res callResult) error {
		if res.err != nil {
			return fmt.Errorf("core: %s: %w", op, res.err)
		}
		if !res.resp.OK {
			return &RemoteError{Code: res.resp.Code, Message: res.resp.Error}
		}
		if out != nil {
			return wire.Decode(res.resp.Body, out)
		}
		return nil
	}
	if d <= 0 {
		return finish(<-ch)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case res := <-ch:
		return finish(res)
	case <-timer.C:
	}
	// Deadline hit. If the demux entry is still ours, abandon the call:
	// leave a tombstone so the reader drops the response if it ever
	// arrives. If it is gone, the response (or a connection failure)
	// won the race and is already in the channel.
	cc.mu.Lock()
	if _, inFlight := cc.pending[id]; !inFlight {
		cc.mu.Unlock()
		return finish(<-ch)
	}
	delete(cc.pending, id)
	if cc.forgot == nil {
		cc.forgot = make(map[uint64]struct{})
	}
	cc.forgot[id] = struct{}{}
	overflow := len(cc.forgot) > forgottenMax
	cc.mu.Unlock()
	if overflow {
		c.fail(cc, fmt.Errorf("core: %d abandoned calls unanswered; connection presumed dead", forgottenMax))
	}
	met.timeouts.Inc()
	return fmt.Errorf("core: %s: %w (after %v)", op, ErrCallTimeout, d)
}

// Call invokes an arbitrary (e.g. custom-registered) operation: the
// client side of the §3.2 payment-scheme extension point.
func (c *Client) Call(op string, in, out any) error { return c.call(op, in, out) }

// CallWithTimeout is Call with an explicit deadline override for this
// one exchange (zero: client default; negative: no deadline).
func (c *Client) CallWithTimeout(op string, in, out any, timeout time.Duration) error {
	return c.callWithTimeout(op, in, out, timeout)
}

// MetricsSnapshot fetches the server's telemetry snapshot
// (administrator caller; primaries and read-only replicas answer
// alike).
func (c *Client) MetricsSnapshot() (*MetricsSnapshotResponse, error) {
	var out MetricsSnapshotResponse
	if err := c.call(OpMetrics, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplicaStatus reports the server's replication role, position and
// staleness (zero staleness on a primary).
func (c *Client) ReplicaStatus() (*ReplicaStatusResponse, error) {
	var out ReplicaStatusResponse
	if err := c.call(OpReplicaStatus, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardMap fetches the server's shard placement parameters: ring shape
// on a primary, ring shape plus own shard index on a shard replica.
func (c *Client) ShardMap() (*ShardMapResponse, error) {
	var out ShardMapResponse
	if err := c.call(OpShardMap, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ping checks connectivity and returns the bank's subject name.
func (c *Client) Ping() (string, error) {
	var out map[string]string
	if err := c.call(OpPing, nil, &out); err != nil {
		return "", err
	}
	return out["bank"], nil
}

// CreateAccount opens an account for the authenticated subject.
func (c *Client) CreateAccount(org string, cur currency.Code) (*accounts.Account, error) {
	var out CreateAccountResponse
	if err := c.call(OpCreateAccount, &CreateAccountRequest{OrganizationName: org, Currency: cur}, &out); err != nil {
		return nil, err
	}
	return &out.Account, nil
}

// AccountDetails fetches an account record.
func (c *Client) AccountDetails(id accounts.ID) (*accounts.Account, error) {
	var out AccountDetailsResponse
	if err := c.call(OpAccountDetails, &AccountDetailsRequest{AccountID: id}, &out); err != nil {
		return nil, err
	}
	return &out.Account, nil
}

// UpdateAccount amends certificate/organization names.
func (c *Client) UpdateAccount(id accounts.ID, certName, orgName string) (*accounts.Account, error) {
	var out AccountDetailsResponse
	req := &UpdateAccountRequest{AccountID: id, CertificateName: certName, OrganizationName: orgName}
	if err := c.call(OpUpdateAccount, req, &out); err != nil {
		return nil, err
	}
	return &out.Account, nil
}

// AccountStatement fetches transactions in [start, end].
func (c *Client) AccountStatement(id accounts.ID, start, end time.Time) (*accounts.Statement, error) {
	var out AccountStatementResponse
	if err := c.call(OpAccountStatement, &AccountStatementRequest{AccountID: id, Start: start, End: end}, &out); err != nil {
		return nil, err
	}
	return &out.Statement, nil
}

// Traced read variants: identical to their namesakes but carrying an
// explicit trace ID, so RoutedClient can pin one logical trace across
// replica attempts, wrong_shard redirects and the primary fallback.

func (c *Client) accountDetailsTraced(id accounts.ID, trace string) (*accounts.Account, error) {
	var out AccountDetailsResponse
	if err := c.callTraced(OpAccountDetails, &AccountDetailsRequest{AccountID: id}, &out, 0, trace); err != nil {
		return nil, err
	}
	return &out.Account, nil
}

func (c *Client) accountStatementTraced(id accounts.ID, start, end time.Time, trace string) (*accounts.Statement, error) {
	var out AccountStatementResponse
	if err := c.callTraced(OpAccountStatement, &AccountStatementRequest{AccountID: id, Start: start, End: end}, &out, 0, trace); err != nil {
		return nil, err
	}
	return &out.Statement, nil
}

func (c *Client) adminListAccountsTraced(trace string) ([]accounts.Account, error) {
	var out AdminAccountsResponse
	if err := c.callTraced(OpAdminAccounts, nil, &out, 0, trace); err != nil {
		return nil, err
	}
	return out.Accounts, nil
}

// CheckFunds locks amount as a payment guarantee.
func (c *Client) CheckFunds(id accounts.ID, amount currency.Amount) error {
	var out ConfirmationResponse
	return c.call(OpCheckFunds, &CheckFundsRequest{AccountID: id, Amount: amount}, &out)
}

// NewIdempotencyKey generates a fresh random idempotency token for a
// keyed mutation. One key identifies one intended mutation: reuse the
// same key across retries of the same transfer, never across distinct
// transfers.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; an unkeyed request
		// (no dedup, seed behavior) beats a panic in a payment path.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// DirectTransfer performs a pay-before-use transfer, returning the
// signed receipt. A fresh idempotency key is attached so the server
// records the mutation in op_dedup; callers that may retry after an
// ambiguous failure should use DirectTransferKeyed to control the key.
func (c *Client) DirectTransfer(from, to accounts.ID, amount currency.Amount, recipientAddr string) (*DirectTransferResponse, error) {
	return c.DirectTransferKeyed(NewIdempotencyKey(), from, to, amount, recipientAddr)
}

// DirectTransferKeyed is DirectTransfer with a caller-supplied
// idempotency key: repeating the call with the same key replays the
// recorded outcome instead of moving money twice, which is what makes
// retry-after-ambiguous-failure safe.
func (c *Client) DirectTransferKeyed(key string, from, to accounts.ID, amount currency.Amount, recipientAddr string) (*DirectTransferResponse, error) {
	var out DirectTransferResponse
	req := &DirectTransferRequest{FromAccountID: from, ToAccountID: to, Amount: amount, RecipientAddress: recipientAddr, IdempotencyKey: key}
	if err := c.call(OpDirectTransfer, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RequestCheque obtains a GridCheque made out to payeeCert, locking
// amount.
func (c *Client) RequestCheque(id accounts.ID, amount currency.Amount, payeeCert string, ttl time.Duration) (*payment.SignedCheque, error) {
	var out RequestChequeResponse
	req := &RequestChequeRequest{AccountID: id, Amount: amount, PayeeCert: payeeCert, TTL: ttl}
	if err := c.call(OpRequestCheque, req, &out); err != nil {
		return nil, err
	}
	return &out.Cheque, nil
}

// RedeemCheque settles a cheque claim (provider side).
func (c *Client) RedeemCheque(cheque *payment.SignedCheque, claim *payment.ChequeClaim) (*RedeemChequeResponse, error) {
	var out RedeemChequeResponse
	req := &RedeemChequeRequest{Cheque: *cheque, Claim: *claim}
	if err := c.call(OpRedeemCheque, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RequestChain obtains a GridHash chain: the signed commitment plus the
// secret seed.
func (c *Client) RequestChain(id accounts.ID, payeeCert string, length int, perWord currency.Amount, ttl time.Duration) (*payment.Chain, *payment.SignedChain, error) {
	var out RequestChainResponse
	req := &RequestChainRequest{AccountID: id, PayeeCert: payeeCert, Length: length, PerWord: perWord, TTL: ttl}
	if err := c.call(OpRequestChain, req, &out); err != nil {
		return nil, nil, err
	}
	chain := &payment.Chain{Commitment: out.Chain.Commitment, Seed: out.Seed}
	if err := chain.Rederive(); err != nil {
		return nil, nil, fmt.Errorf("core: server returned inconsistent chain: %w", err)
	}
	return chain, &out.Chain, nil
}

// RedeemChain settles a chain claim incrementally (provider side).
func (c *Client) RedeemChain(chain *payment.SignedChain, claim *payment.ChainClaim) (*RedeemChainResponse, error) {
	var out RedeemChainResponse
	req := &RedeemChainRequest{Chain: *chain, Claim: *claim}
	if err := c.call(OpRedeemChain, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReleaseCheque releases an expired cheque's lock (drawer side).
func (c *Client) ReleaseCheque(serial string) (currency.Amount, error) {
	var out ReleaseResponse
	if err := c.call(OpReleaseCheque, &ReleaseRequest{Serial: serial}, &out); err != nil {
		return 0, err
	}
	return out.Released, nil
}

// ReleaseChain releases an expired chain's remaining lock (drawer side).
func (c *Client) ReleaseChain(serial string) (currency.Amount, error) {
	var out ReleaseResponse
	if err := c.call(OpReleaseChain, &ReleaseRequest{Serial: serial}, &out); err != nil {
		return 0, err
	}
	return out.Released, nil
}

// --- Admin client (§5.2.1) --------------------------------------------------

// AdminDeposit credits an account (administrator caller).
func (c *Client) AdminDeposit(id accounts.ID, amount currency.Amount) error {
	var out ConfirmationResponse
	return c.call(OpAdminDeposit, &AdminAmountRequest{AccountID: id, Amount: amount}, &out)
}

// AdminWithdraw debits an account (administrator caller).
func (c *Client) AdminWithdraw(id accounts.ID, amount currency.Amount) error {
	var out ConfirmationResponse
	return c.call(OpAdminWithdraw, &AdminAmountRequest{AccountID: id, Amount: amount}, &out)
}

// AdminChangeCreditLimit sets a credit limit (administrator caller).
func (c *Client) AdminChangeCreditLimit(id accounts.ID, limit currency.Amount) error {
	var out ConfirmationResponse
	return c.call(OpAdminCreditLimit, &AdminAmountRequest{AccountID: id, Amount: limit}, &out)
}

// AdminCancelTransfer reverses a transfer (administrator caller).
func (c *Client) AdminCancelTransfer(txID uint64) error {
	var out ConfirmationResponse
	return c.call(OpAdminCancel, &AdminCancelRequest{TransactionID: txID}, &out)
}

// AdminCloseAccount closes an account (administrator caller).
func (c *Client) AdminCloseAccount(id, transferTo accounts.ID) error {
	var out ConfirmationResponse
	return c.call(OpAdminClose, &AdminCloseRequest{AccountID: id, TransferTo: transferTo}, &out)
}

// AdminListAccounts lists all accounts (administrator caller).
func (c *Client) AdminListAccounts() ([]accounts.Account, error) {
	var out AdminAccountsResponse
	if err := c.call(OpAdminAccounts, nil, &out); err != nil {
		return nil, err
	}
	return out.Accounts, nil
}
