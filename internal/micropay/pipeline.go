package micropay

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/obs"
	"gridbank/internal/payment"
	"gridbank/internal/settle"
)

// tableSpool is the intake spool table (on the spool store).
const tableSpool = "micropay_spool"

// Config configures a Pipeline.
type Config struct {
	// Redeemer performs the actual chain redemptions. Required. Sharing
	// the bank's instance makes the streaming path and the synchronous
	// RedeemChain path serialize per serial.
	Redeemer *Redeemer
	// FindAccount resolves a certificate name to its account in the
	// given currency — the payee lookup at intake. Required.
	FindAccount func(cert string, cur currency.Code) (*accounts.Account, error)
	// Spool is the intake store. Required. Give it a WAL-backed journal
	// for durable intake; the pipeline recovers pending rows from it at
	// construction.
	Spool *db.Store
	// BatchSize caps how many spool rows (one per chain) one settlement
	// batch takes off the queue (default 64). All rows for one chain
	// inside a batch settle as ONE redemption transaction.
	BatchSize int
	// Workers is the number of background settlement goroutines
	// (default 2). Workers < 0 starts none: settlement then runs only
	// through SettleOnce/Drain — the deterministic mode crash tests use.
	Workers int
	// MaxPending bounds the intake queue, in spool rows: a Submit that
	// could push the pending count past it — by one row per chain it
	// advances, before intake knows which of them merge into a pending
	// row — fails with ErrOverloaded (default 4096).
	MaxPending int
	// RetryInterval is how often idle workers re-check for work missed
	// by kicks, and the pace of transient-failure retries (default 25ms).
	RetryInterval time.Duration
	// Now supplies timestamps; defaults to time.Now.
	Now func() time.Time
	// Log records transient settlement faults; nil discards them.
	Log *obs.Logger
	// Obs names the pipeline's instruments (micropay.queue_depth,
	// micropay.inflight, micropay.batch_claims, micropay.settled_ticks,
	// micropay.settled_claims, micropay.parked, micropay.overloaded,
	// micropay.cleanup_redone). Nil leaves telemetry off.
	Obs *obs.Registry
	// CrashHook installs fault injection before the workers start; it
	// also arms the Redeemer's hook, so the Pinned/Settled/Advanced
	// boundaries fire from inside redemption. Test instrumentation only.
	CrashHook func(b Boundary, serial string) error
}

// session is the per-chain intake state: the verified commitment, the
// resolved payee, and the highest word accepted so far — the anchor the
// next preimage verifies against in O(delta) hashes. cc and payee never
// change; mu is the chain's intake lock and guards the anchor. A session
// dropped from the map while a Submit holds it stays valid for that
// holder; the next Submit reloads one from the chain row.
type session struct {
	cc    payment.ChainCommitment
	payee accounts.ID

	mu       sync.Mutex
	head     int
	headWord []byte // empty at head 0 (anchor = root) or for legacy rows
}

// fold is one chain's part of a Submit: the locked session (or why the
// chain takes no claims) and the anchor as the batch's verified claims
// advance it — what becomes the chain's one spool row.
type fold struct {
	sess    *session
	refusal string
	head    int
	word    []byte
	rur     []byte // the top claim's evidence
	claims  int    // claims verified, all subsumed by the one at head
	ticks   int    // words they advance the anchor by
}

// Pipeline is the streaming micropayment path: per-chain sessions and
// the delta rule at intake, per-serial collapse and one redemption per
// chain at settlement. The spool, queue, worker, retry and Drain
// lifecycle is internal/settle's. Construct with New — which also runs
// crash recovery — and Close when done.
type Pipeline struct {
	red  *Redeemer
	find func(cert string, cur currency.Code) (*accounts.Account, error)
	now  func() time.Time
	hook func(b Boundary, serial string) error // never nil; an error abandons processing
	eng  *settle.Engine[*spoolRow]

	// sessMu guards the sessions map and sweepAt alone: settlement also
	// reaches the map (to drop an exhausted chain's session) and must not
	// wait a spool commit for it, so nobody blocks on a session's own
	// lock while holding sessMu.
	sessMu   sync.Mutex
	sessions map[string]*session
	sweepAt  int // session count that triggers the next expiry sweep

	settledTicks  atomic.Uint64
	settledClaims atomic.Uint64
	rejected      atomic.Uint64
	batches       atomic.Uint64
	crossShard    atomic.Uint64
	mTicks        *obs.Counter
	mClaims       *obs.Counter
}

// New builds a pipeline over the redeemer and spool store, recovers any
// claims a crash left pending, and starts the settlement workers.
// (Pinned cross-shard redemptions live in chain rows and are recovered
// by NewRedeemer.)
func New(cfg Config) (*Pipeline, error) {
	if cfg.Redeemer == nil {
		return nil, errors.New("micropay: pipeline requires a redeemer")
	}
	if cfg.FindAccount == nil {
		return nil, errors.New("micropay: pipeline requires an account resolver")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Pipeline{
		red:      cfg.Redeemer,
		find:     cfg.FindAccount,
		now:      cfg.Now,
		hook:     settle.Hook(cfg.CrashHook),
		sessions: make(map[string]*session),
		sweepAt:  minSweep,
		mTicks:   cfg.Obs.Counter("micropay.settled_ticks"),
		mClaims:  cfg.Obs.Counter("micropay.settled_claims"),
	}
	if cfg.CrashHook != nil && p.red.Hook == nil {
		p.red.Hook = p.hook // Pinned/Settled/Advanced fire from inside redemption
	}
	eng, err := settle.New(settle.Config[*spoolRow]{
		Name:          "micropay",
		BatchMetric:   "batch_claims",
		Table:         tableSpool,
		Spool:         cfg.Spool,
		ShardFor:      cfg.Redeemer.Ledger().ShardFor,
		BatchSize:     cfg.BatchSize,
		Workers:       cfg.Workers,
		MaxPending:    cfg.MaxPending,
		RetryInterval: cfg.RetryInterval,
		Log:           cfg.Log,
		Obs:           cfg.Obs,

		ErrOverloaded:   ErrOverloaded,
		ErrClosed:       ErrClosed,
		ErrDrainStalled: ErrDrainStalled,
		ErrDrainTimeout: ErrDrainTimeout,
		Encode:          encodeSpoolRow,
		Decode:          decodeSpoolRow,

		Admit:     admit,
		Recovered: p.recovered,
		Spooled:   func(first *spoolRow) error { return p.hook(BoundarySpooled, first.Serial) },
		Settle:    p.settleGroup,
	})
	if err != nil {
		return nil, err
	}
	p.eng = eng
	eng.Start()
	return p, nil
}

// Close stops the workers. Pending claims stay durably spooled and
// settle when a new pipeline is constructed over the same stores.
func (p *Pipeline) Close() error { return p.eng.Close() }

// Status reports the pipeline's observable state.
func (p *Pipeline) Status() *Stats {
	st := p.eng.Status()
	return &Stats{
		Pending:       st.Pending,
		QueueDepth:    st.QueueDepth,
		InFlight:      st.InFlight,
		Failed:        st.Failed,
		SettledTicks:  p.settledTicks.Load(),
		SettledClaims: p.settledClaims.Load(),
		Duplicates:    st.Duplicates,
		Rejected:      p.rejected.Load(),
		Batches:       p.batches.Load(),
		CrossShard:    p.crossShard.Load(),
		Workers:       st.Workers,
		BatchSize:     st.BatchSize,
		LastError:     st.LastError,
	}
}

// Submit verifies a batch of chain claims and durably spools them for
// asynchronous redemption. payeeCert is the authenticated caller; every
// claim must belong to a chain made out to that certificate (pass "" to
// bypass the binding — admin relay). Claims with bad preimages, unknown
// serials or expired chains come back in SubmitResult.Rejected
// (terminal); claims at or below the accepted head are duplicates under
// the delta rule.
//
// The same rule folds the batch before it is spooled, and merges it with
// what the spool already holds: a chain has ONE spool row, keyed by its
// serial, at the highest index accepted and not yet settled, carrying
// that claim's RUR (the evidence the TRANSFER record keeps) and the
// number of claims it stands for. A Submit on a chain with a pending row
// overwrites it in the intake transaction. Accepted still counts claims.
// A nil error means every accepted claim is covered by a journaled row
// and its ticks will be paid exactly once.
func (p *Pipeline) Submit(payeeCert string, batch []Claim) (*SubmitResult, error) {
	res := &SubmitResult{}
	p.sweepExpired()

	// Take the batch's chains in serial order (two Submits naming the same
	// chains in opposite claim order cannot deadlock) and hold them across
	// verify → spool commit → anchor advance: Submits on one chain
	// serialize, Submits on disjoint chains verify in parallel and share
	// the spool journal's group flush.
	folds := make(map[string]*fold)
	var serials []string
	for i := range batch {
		cl := &batch[i]
		if folds[cl.Serial] == nil && ValidClaimShape(cl) == "" {
			folds[cl.Serial] = &fold{}
			serials = append(serials, cl.Serial)
		}
	}
	sort.Strings(serials)
	for _, serial := range serials {
		f := folds[serial]
		if f.sess, f.refusal = p.sessionFor(serial, payeeCert); f.sess != nil {
			f.sess.mu.Lock()
			defer f.sess.mu.Unlock()
			f.head, f.word = f.sess.head, f.sess.headWord
		}
	}

	// Each claim extends its chain's anchor, so a burst of N claims on one
	// chain costs O(maxIndex) hashes total, not O(N·maxIndex). The session
	// itself advances only after the spool transaction commits.
	reject := func(cl *Claim, reason string) {
		res.Rejected = append(res.Rejected, Rejection{Serial: cl.Serial, Index: cl.Index, Reason: reason})
	}
	var redundant int
	for i := range batch {
		cl := &batch[i]
		if reason := ValidClaimShape(cl); reason != "" {
			reject(cl, reason)
			continue
		}
		f := folds[cl.Serial]
		if f.refusal != "" {
			reject(cl, f.refusal)
			continue
		}
		if cl.Index <= f.head {
			// The delta rule makes a lower claim redundant: the accepted
			// higher word already pays for it.
			redundant++
			continue
		}
		if err := verifyWordAfter(&f.sess.cc, f.head, f.word, cl.Index, cl.Word); err != nil {
			reject(cl, err.Error())
			continue
		}
		f.ticks += cl.Index - f.head
		f.head, f.word, f.rur = cl.Index, cl.Word, cl.RUR
		f.claims++
	}
	p.rejected.Add(uint64(len(res.Rejected)))

	var rows []*spoolRow
	now := p.now()
	for _, serial := range serials {
		if f := folds[serial]; f.claims > 0 {
			rows = append(rows, &spoolRow{
				Key:         serial,
				Serial:      serial,
				Index:       f.head,
				Word:        f.word,
				RUR:         f.rur,
				Drawer:      f.sess.cc.DrawerAccountID, // groups the row; never stored
				State:       statePending,
				submitted:   f.claims,
				submittedAt: now,
			})
		}
	}
	in, err := p.eng.Submit(rows)
	if in == nil {
		return nil, err
	}
	// The rows are durable: advance the anchors before the chains unlock.
	// A row the spool refused (its pending row already reaches as far)
	// makes its claims duplicates and its ticks unacknowledged.
	dupClaims := 0
	for _, row := range rows {
		f := folds[row.Serial]
		if !row.admitted {
			dupClaims += f.claims
			continue
		}
		f.sess.head, f.sess.headWord = f.head, f.word
		res.Accepted += f.claims
		res.AcceptedTicks += f.ticks
	}
	p.eng.CountDuplicates(redundant + dupClaims - in.Duplicates) // the engine counted one per row
	res.Duplicates = redundant + dupClaims
	return res, err
}

// admit runs in the intake transaction (settle.Config.Admit): it merges
// a Submit's row for a chain with the row the chain's key holds. The
// merged row keeps the higher claim (index, word, evidence), the sum of
// the claims and the older enqueue instant, the age of the oldest claim
// it still owes. A pending row that already reaches as far makes the
// incoming one a duplicate; a parked one is revived, its claims with it.
func admit(in, cur *spoolRow) bool {
	in.Claims, in.Enqueued, in.admitted = in.submitted, in.submittedAt, false // the transaction may rerun
	if cur != nil {
		if cur.Index >= in.Index {
			if !cur.Parked() {
				return false
			}
			in.Index, in.Word, in.RUR = cur.Index, cur.Word, cur.RUR
		}
		in.Claims += cur.claims()
		if cur.Enqueued.Before(in.Enqueued) {
			in.Enqueued = cur.Enqueued
		}
	}
	in.admitted = true
	return true
}

// sessionFor loads (or returns) the intake session for a chain,
// checking everything that makes a claim terminally unacceptable. A
// non-empty reason rejects the chain's claims.
func (p *Pipeline) sessionFor(serial, payeeCert string) (*session, string) {
	if serial == "" {
		return nil, "empty chain serial"
	}
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	sess := p.sessions[serial]
	if sess == nil {
		row, err := p.red.Get(serial)
		if errors.Is(err, ErrUnknownChain) {
			return nil, "unknown chain serial"
		}
		if err != nil {
			return nil, err.Error()
		}
		if row.State != StateOutstanding {
			return nil, fmt.Sprintf("chain is %s", row.State)
		}
		payee, err := p.payeeAccount(&row.Commitment)
		if err != nil {
			return nil, err.Error()
		}
		sess = newSession(row, payee)
		p.sessions[serial] = sess
	}
	if payeeCert != "" && payeeCert != sess.cc.PayeeCert {
		return nil, fmt.Sprintf("chain is payable to %s, not %s", sess.cc.PayeeCert, payeeCert)
	}
	if !p.now().Before(sess.cc.Expires) {
		delete(p.sessions, serial) // can never accept another claim
		return nil, "chain expired"
	}
	return sess, ""
}

// newSession anchors a chain's intake session at its redeemed index, or
// at a pinned redemption's target beyond it.
func newSession(row *ChainRow, payee accounts.ID) *session {
	sess := &session{cc: row.Commitment, payee: payee, head: row.RedeemedIndex, headWord: row.RedeemedWord}
	if row.PinTxID != 0 && row.PinIndex > sess.head {
		sess.head, sess.headWord = row.PinIndex, row.PinWord
	}
	return sess
}

// payeeAccount resolves the chain payee's account in the chain currency.
func (p *Pipeline) payeeAccount(cc *payment.ChainCommitment) (accounts.ID, error) {
	acct, err := p.find(cc.PayeeCert, cc.Currency)
	if err != nil {
		return "", fmt.Errorf("payee has no %s account: %w", cc.Currency, err)
	}
	return acct.AccountID, nil
}

// recovered sees every spooled row at boot (settle.Config.Recovered). A
// pending per-chain row gets its drawer from the chain commitment, and
// every pending row seeds its chain's intake session, so a producer
// resending what the spool already holds is told those claims are
// duplicates. A row whose chain cannot be read keeps no drawer: it
// settles in a group of its own, where the same lookup fails again and
// parks it with the reason — a boot never fails on it.
func (p *Pipeline) recovered(row *spoolRow) {
	if row.Parked() {
		return
	}
	cr, err := p.red.Get(row.Serial)
	if err != nil {
		return
	}
	if row.Drawer == "" {
		row.Drawer = cr.Commitment.DrawerAccountID
	}
	if cr.State != StateOutstanding {
		return
	}
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	sess := p.sessions[row.Serial]
	if sess == nil {
		payee, err := p.payeeAccount(&cr.Commitment)
		if err != nil {
			return
		}
		sess = newSession(cr, payee)
		p.sessions[row.Serial] = sess
	}
	if row.Index > sess.head {
		sess.head, sess.headWord = row.Index, row.Word
	}
}

// payeeOf resolves the account a row pays: the one a legacy row names,
// else the intake session's payee, else — on a miss — the chain payee's
// account. A row the chain is already redeemed past is stale before
// anyone is looked up.
func (p *Pipeline) payeeOf(row *spoolRow) (accounts.ID, error) {
	if row.Payee != "" {
		return row.Payee, nil
	}
	p.sessMu.Lock()
	sess := p.sessions[row.Serial]
	p.sessMu.Unlock()
	if sess != nil {
		return sess.payee, nil
	}
	cr, err := p.red.Get(row.Serial)
	if err != nil {
		return "", err
	}
	if row.Index <= cr.RedeemedIndex {
		return "", fmt.Errorf("%w: claim %d, already redeemed to %d", ErrStaleIndex, row.Index, cr.RedeemedIndex)
	}
	return p.payeeAccount(&cr.Commitment)
}

// minSweep is the smallest session count worth sweeping.
const minSweep = 64

// sweepExpired forgets the sessions of expired chains once the map has
// doubled since the last sweep, so a chain nobody claims against again
// does not stay cached for the life of the process.
func (p *Pipeline) sweepExpired() {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	if len(p.sessions) < p.sweepAt {
		return
	}
	now := p.now()
	for serial, sess := range p.sessions {
		if !now.Before(sess.cc.Expires) {
			delete(p.sessions, serial)
		}
	}
	p.sweepAt = max(minSweep, 2*len(p.sessions))
}

// SettleOnce runs one synchronous settlement pass over every group that
// had pending work when the pass started, and reports how many claims
// reached a terminal outcome.
func (p *Pipeline) SettleOnce() (int, error) { return p.eng.SettleOnce() }

// Drain blocks until every pending claim reaches a terminal outcome, or
// the timeout elapses. With background workers it kicks and waits; in
// synchronous mode (Workers < 0) it runs settlement passes itself and
// reports ErrDrainStalled if a full pass makes no progress.
func (p *Pipeline) Drain(timeout time.Duration) (*Stats, error) {
	err := p.eng.Drain(timeout)
	return p.Status(), err
}

// settleGroup settles one batch of spool rows drawn from a single
// account. A chain's rows (its per-chain row, and legacy rows spooled one
// per Submit) collapse again: only the highest index redeems (one
// transaction per chain), and the lower rows it subsumes finish as part
// of the same advance. Claims count once their row is retired: a row a
// merge superseded in flight is counted when its merged row retires.
func (p *Pipeline) settleGroup(b *settle.Batch[*spoolRow]) error {
	bySerial := make(map[string][]*spoolRow)
	serials := make([]string, 0, 4)
	for _, row := range b.Rows {
		if _, seen := bySerial[row.Serial]; !seen {
			serials = append(serials, row.Serial)
		}
		bySerial[row.Serial] = append(bySerial[row.Serial], row)
	}
	sort.Strings(serials)

	for _, serial := range serials {
		rows := bySerial[serial]
		// The delta rule: the highest claim pays for everything below it.
		top := rows[0]
		for _, row := range rows {
			if row.Index > top.Index {
				top = row
			}
		}
		payee, err := p.payeeOf(top)
		var out *Outcome
		if err == nil {
			out, err = p.red.Redeem(serial, payee, top.Index, top.Word, top.RUR)
		}
		stale := errors.Is(err, ErrStaleIndex)
		switch {
		case err == nil:
			if out.Ticks > 0 {
				p.batches.Add(1)
			}
			if out.CrossShard {
				p.crossShard.Add(1)
			}
			p.settledTicks.Add(uint64(out.Ticks))
			p.mTicks.Add(int64(out.Ticks))
		case stale:
			// Already paid (subsumed by an earlier advance, or a crash lost
			// its clean-up): checked before chain state, so never parked.
		case settle.Terminal(err, ErrUnknownChain, ErrChainState, payment.ErrBadWord, payment.ErrBadIndex):
			failures := make([]settle.Parked[*spoolRow], len(rows))
			for i, row := range rows {
				failures[i] = settle.Parked[*spoolRow]{Row: row, Reason: err.Error()}
			}
			if err := b.Finish(nil, failures); err != nil {
				return err
			}
			continue
		default: // transient fault, or a crash hook's abandon
			return fmt.Errorf("micropay: redeeming chain %s: %w", serial, err)
		}
		if err := b.Finish(rows, nil); err != nil {
			return err
		}
		claims, retired := 0, 0
		for _, row := range rows {
			if !b.Superseded(row) {
				claims += row.claims()
				retired++
			}
		}
		if stale {
			p.eng.CountDuplicates(claims)
			p.eng.CountRedone(retired)
		} else {
			p.settledClaims.Add(uint64(claims))
			p.mClaims.Add(int64(claims))
		}
		if out != nil && out.State == StateRedeemed {
			// Exhausted: the chain can never accept another claim, and a
			// replay reloads the row and is refused there.
			p.sessMu.Lock()
			delete(p.sessions, serial)
			p.sessMu.Unlock()
		}
		if err := p.hook(BoundaryCleaned, serial); err != nil {
			return err
		}
	}
	return nil
}

// wordSize guards claim shape at the wire layer.
const wordSize = sha256.Size

// ValidClaimShape cheaply screens a claim before any chain lookup.
func ValidClaimShape(cl *Claim) string {
	switch {
	case cl.Serial == "":
		return "empty chain serial"
	case cl.Index <= 0 || cl.Index > payment.MaxChainLength:
		return fmt.Sprintf("claim index %d out of range", cl.Index)
	case len(cl.Word) != wordSize:
		return "claim word is not a SHA-256 digest"
	}
	return ""
}
