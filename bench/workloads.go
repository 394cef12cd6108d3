package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
)

// The four workloads: one per §3.3 payment model, plus the batched
// §5.1 usage path. Each is here because it loads layers the others
// leave idle; README.md says which.

// --- pay_before: DirectTransferKeyed -------------------------------------------

// payBefore is §3.3 pay-before-use: many small frames, one ledger
// transaction, one ECDSA receipt and one group-committed fsync per op.
type payBefore struct{}

func (*payBefore) prepare(*env) error { return nil }
func (*payBefore) reconnect(*env)     {}

func (*payBefore) transfer(e *env, c *core.Client, op transferOp, parent spanRef) error {
	sp := parent.child("call:DirectTransfer")
	resp, err := c.DirectTransferKeyed(op.Key, op.From, op.To, op.Amount, "")
	sp.end()
	if err != nil {
		return err
	}
	if resp.Receipt == nil || resp.TransactionID == 0 {
		return errors.New("transfer acknowledged without a signed receipt")
	}
	e.acked[op.Provider].Add(op.Amount.Micro())
	e.items.Add(1)
	return nil
}

func (w *payBefore) caller(e *env, i int, gen *opGen) func(*spanBuf) error {
	return func(sb *spanBuf) error {
		root := sb.root("pay_before")
		op := gen.nextTransfer()
		err := w.transfer(e, e.conn(i), op, root)
		root.end()
		return err
	}
}

func (w *payBefore) solo(e *env, gen *opGen, sb *spanBuf) func() error {
	return func() error {
		root := sb.root("pay_before")
		err := w.transfer(e, e.connA, gen.nextTransfer(), root)
		root.end()
		return err
	}
}

func (*payBefore) gated() bool                     { return false }
func (*payBefore) itemsPerOp() int                 { return 1 }
func (*payBefore) status(e *env) (pipeStat, error) { return pipeStat{settled: e.items.Load()}, nil }
func (*payBefore) quiesce(*env) error              { return nil }

// --- pay_after: GridCheque issue → sign claim → redeem -------------------------

// payAfter is §3.3 pay-after-use with the §3.4 fund lock: the consumer
// side asks for a cheque on connection A, the GSP signs its claim and
// redeems on connection B under its own identity. Verify-heavy, two
// durable commits, JSON long-tail bodies, one hot payee row.
type payAfter struct{}

func (*payAfter) prepare(*env) error { return nil }
func (*payAfter) reconnect(*env)     {}

func (*payAfter) cheque(e *env, op chequeOp, root spanRef) error {
	sp := root.child("issue")
	call := sp.child("call:RequestCheque")
	cheque, err := e.connA.RequestCheque(op.Drawer, currency.FromG(chequeLimitG), e.gsp.SubjectName(), time.Hour)
	call.end()
	sp.end()
	if err != nil {
		return fmt.Errorf("issue: %w", err)
	}
	claim := &payment.ChequeClaim{Serial: cheque.Cheque.Serial, Amount: op.Amount, RUR: op.RUR}
	sp = root.child("sign_claim")
	// The GSP's non-repudiation record of its charge calculation (§2.1);
	// it stays with the GSP, the bank receives the bare claim.
	_, err = pki.Sign(e.gsp, payment.ContextRedemption, claim)
	sp.end()
	if err != nil {
		return fmt.Errorf("sign claim: %w", err)
	}
	sp = root.child("redeem")
	call = sp.child("call:RedeemCheque")
	resp, err := e.connB.RedeemCheque(cheque, claim)
	call.end()
	sp.end()
	if err != nil {
		return fmt.Errorf("redeem: %w", err)
	}
	if resp.Paid != op.Amount {
		return fmt.Errorf("redeem paid %s, claim was %s", resp.Paid, op.Amount)
	}
	e.acked[0].Add(op.Amount.Micro())
	e.items.Add(1)
	return nil
}

func (w *payAfter) caller(e *env, _ int, gen *opGen) func(*spanBuf) error {
	return func(sb *spanBuf) error {
		root := sb.root("pay_after")
		err := w.cheque(e, gen.nextCheque(), root)
		root.end()
		return err
	}
}

func (w *payAfter) solo(e *env, gen *opGen, sb *spanBuf) func() error {
	return func() error {
		root := sb.root("pay_after")
		err := w.cheque(e, gen.nextCheque(), root)
		root.end()
		return err
	}
}

func (*payAfter) gated() bool                     { return false }
func (*payAfter) itemsPerOp() int                 { return 1 }
func (*payAfter) status(e *env) (pipeStat, error) { return pipeStat{settled: e.items.Load()}, nil }
func (*payAfter) quiesce(*env) error              { return nil }

// --- usage_batch: Usage.Submit → settled charge ------------------------------------

// usageBatch is the §5.1 RUR → charge path at scale: few large frames
// and journal records, pricing at intake, batched settlement.
type usageBatch struct {
	base int64 // items acknowledged before the daemon's current life began
}

func (*usageBatch) prepare(*env) error { return nil }
func (w *usageBatch) reconnect(e *env) { w.base = e.items.Load() }

func (*usageBatch) submit(e *env, c *core.Client, op usageOp, parent spanRef) error {
	wait := parent.child("window_wait")
	e.gate.acquire(len(op.Subs))
	wait.end()
	sp := parent.child("submit")
	call := sp.child("call:Usage.Submit")
	res, err := c.UsageSubmit(op.Subs)
	call.end()
	sp.end()
	if err != nil {
		return err
	}
	if res.Accepted != len(op.Subs) || res.Duplicates != 0 || len(res.Rejected) != 0 {
		return fmt.Errorf("submit of %d charges: accepted %d, duplicates %d, rejected %d",
			len(op.Subs), res.Accepted, res.Duplicates, len(res.Rejected))
	}
	for k, p := range op.Providers {
		e.acked[p].Add(op.Amounts[k].Micro())
	}
	e.items.Add(int64(len(op.Subs)))
	return nil
}

func (w *usageBatch) caller(e *env, i int, gen *opGen) func(*spanBuf) error {
	return func(sb *spanBuf) error {
		root := sb.root("usage_batch")
		err := w.submit(e, e.conn(i), gen.nextUsage(usagePerCall), root)
		root.end()
		return err
	}
}

// solo times submit → settled for one charge on an idle pipeline.
func (w *usageBatch) solo(e *env, gen *opGen, sb *spanBuf) func() error {
	return func() error {
		root := sb.root("usage_batch")
		defer root.end()
		if err := w.submit(e, e.connA, gen.nextUsage(1), root); err != nil {
			return err
		}
		sp := root.child("drain")
		call := sp.child("call:Usage.Drain")
		_, err := e.connA.UsageDrain(30 * time.Second)
		call.end()
		sp.end()
		return err
	}
}

func (*usageBatch) gated() bool     { return true }
func (*usageBatch) itemsPerOp() int { return usagePerCall }

func (*usageBatch) status(e *env) (pipeStat, error) {
	st, err := e.admin.UsageStatus()
	if err != nil {
		return pipeStat{}, err
	}
	return pipeStat{settled: int64(st.Settled), pending: st.Pending, queue: st.QueueDepth}, nil
}

func (w *usageBatch) quiesce(e *env) error {
	st, err := e.admin.UsageDrain(60 * time.Second)
	if err != nil {
		return err
	}
	return checkPipeline("usage", int64(st.Settled), e.items.Load()-w.base, st.Pending, st.Failed, st.Duplicates, st.Rejected)
}

// checkPipeline is the pipelines' own exactly-once evidence: everything
// the loader saw accepted in this daemon life was settled, nothing is
// pending, parked, deduplicated or rejected.
func checkPipeline(name string, settled, accepted int64, pending, failed int, dups, rejected uint64) error {
	if settled != accepted || pending != 0 || failed != 0 || dups != 0 || rejected != 0 {
		return fmt.Errorf("%s pipeline settled %d of %d accepted (pending %d, failed %d, duplicates %d, rejected %d)",
			name, settled, accepted, pending, failed, dups, rejected)
	}
	return nil
}

// --- pay_as_you_go: GridHash streams → Micropay.Submit ---------------------------

// payAsYouGo is §3.3 pay-as-you-go: few large frames, no per-item
// signature, O(delta) hash verification, WAL spool and (shard, drawer)
// batched settlement. The unit of work is one settled tick.
type payAsYouGo struct {
	base int64 // ticks acknowledged before the daemon's current life began

	streams [][]*stream // per caller: the streams it owns (nobody else touches them)
	soloSet []*stream   // the solo phase's one single-shard stream
}

// stream is one live GridHash chain as its payee's relay sees it.
type stream struct {
	provider int
	serial   string
	chain    *payment.Chain
	next     int // next index to claim
}

const streamsPerCaller = liveStreams / numCallers

// open requests a fresh chain for a generated (drawer, payee) pair.
func (w *payAsYouGo) open(e *env, c *core.Client, gen *opGen, length int, local bool, parent spanRef) (*stream, error) {
	pick := gen.nextStream(local)
	sp := parent.child("call:RequestChain")
	chain, signed, err := c.RequestChain(e.pop.consumers[pick.Consumer].ID, e.pop.providers[pick.Provider].Cert,
		length, currency.FromMicro(chainPerWordU), time.Hour)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("request chain: %w", err)
	}
	return &stream{provider: pick.Provider, serial: signed.Commitment.Serial, chain: chain, next: claimEvery}, nil
}

// prepare opens the 64 live streams. The first chain of each is given
// a random shorter length so they do not all run out — and get
// replaced — in the same instant.
func (w *payAsYouGo) prepare(e *env) error {
	w.streams = make([][]*stream, numCallers)
	w.soloSet = make([]*stream, 1)
	return parallel(numCallers, numCallers, pacer{}, func(_, i int) error {
		gen := newOpGen(e.pop, e.cfg.seed, e.cfg.workload, preloadCaller*2+i)
		for k := 0; k < streamsPerCaller; k++ {
			length := claimEvery * (1 + gen.r.IntN(chainLength/claimEvery))
			s, err := w.open(e, e.conn(i), gen, length, false, spanRef{})
			if err != nil {
				return err
			}
			w.streams[i] = append(w.streams[i], s)
		}
		return nil
	})
}

func (w *payAsYouGo) reconnect(e *env) { w.base = e.items.Load() }

// submit sends the next perStream claims of each stream in set in one
// Micropay.Submit (admin relay) and returns the ticks it advanced. A
// stream that cannot supply them is replaced by a fresh chain first.
func (w *payAsYouGo) submit(e *env, c *core.Client, gen *opGen, set []*stream, perStream int, local bool, root spanRef) error {
	batch := make([]micropay.Claim, 0, len(set)*perStream)
	for k, s := range set {
		if s == nil || s.next+(perStream-1)*claimEvery > s.chain.Commitment.Length {
			fresh, err := w.open(e, c, gen, chainLength, local, root)
			if err != nil {
				return err
			}
			set[k], s = fresh, fresh
		}
		for j := 0; j < perStream; j++ {
			word, err := s.chain.Word(s.next)
			if err != nil {
				return err
			}
			batch = append(batch, micropay.Claim{Serial: s.serial, Index: s.next, Word: word})
			s.next += claimEvery
		}
	}
	wait := root.child("window_wait")
	e.gate.acquire(len(batch))
	wait.end()
	sp := root.child("submit")
	call := sp.child("call:Micropay.Submit")
	res, err := c.MicropaySubmit(batch)
	call.end()
	sp.end()
	if err != nil {
		return err
	}
	ticks := len(batch) * claimEvery
	if res.Accepted != len(batch) || res.AcceptedTicks != ticks || res.Duplicates != 0 || len(res.Rejected) != 0 {
		return fmt.Errorf("submit of %d claims: accepted %d (%d ticks), duplicates %d, rejected %d",
			len(batch), res.Accepted, res.AcceptedTicks, res.Duplicates, len(res.Rejected))
	}
	for _, s := range set {
		e.acked[s.provider].Add(int64(perStream * claimEvery * chainPerWordU))
	}
	e.items.Add(int64(ticks))
	return nil
}

func (w *payAsYouGo) caller(e *env, i int, gen *opGen) func(*spanBuf) error {
	return func(sb *spanBuf) error {
		root := sb.root("pay_as_you_go")
		err := w.submit(e, e.conn(i), gen, w.streams[i], claimsPerCall/streamsPerCaller, false, root)
		root.end()
		return err
	}
}

// solo times submit → settled for one claim on an idle pipeline.
func (w *payAsYouGo) solo(e *env, gen *opGen, sb *spanBuf) func() error {
	return func() error {
		root := sb.root("pay_as_you_go")
		defer root.end()
		if err := w.submit(e, e.connA, gen, w.soloSet, 1, true, root); err != nil {
			return err
		}
		sp := root.child("drain")
		call := sp.child("call:Micropay.Drain")
		_, err := e.connA.MicropayDrain(30 * time.Second)
		call.end()
		sp.end()
		return err
	}
}

func (*payAsYouGo) gated() bool     { return true }
func (*payAsYouGo) itemsPerOp() int { return claimsPerCall }

func (*payAsYouGo) status(e *env) (pipeStat, error) {
	st, err := e.admin.MicropayStatus()
	if err != nil {
		return pipeStat{}, err
	}
	return pipeStat{settled: int64(st.SettledTicks), pending: st.Pending, queue: st.QueueDepth}, nil
}

func (w *payAsYouGo) quiesce(e *env) error {
	st, err := e.admin.MicropayDrain(60 * time.Second)
	if err != nil {
		return err
	}
	// The pipeline counts claims superseded by a higher one of the same
	// batch as duplicates; that is the delta rule working, not a replay.
	return checkPipeline("micropay", int64(st.SettledTicks), e.items.Load()-w.base, st.Pending, st.Failed, 0, st.Rejected)
}

// --- intake window ------------------------------------------------------------------

// pipeStat is a pipeline's position as Usage.Status / Micropay.Status
// report it (direct workloads report their acknowledged ops as settled).
type pipeStat struct {
	settled int64 // units settled in the daemon's current life
	pending int   // items spooled or being spooled, not yet settled
	queue   int   // items waiting for a settlement worker
}

// intakeWindow is the share of the daemon's default pending-queue bound
// (-usage-queue / -micropay-queue 4096) the loader lets itself fill.
const intakeWindow = 3072

// gate is the producers' flow control for the two pipeline workloads.
// Submit acknowledges at the spool, so 32 closed-loop callers outrun
// settlement and would walk into the daemon's `overloaded` refusal; a
// relay that knows the documented bound polls Status and holds new
// batches back while the queue is near it. The hold is not part of the
// Submit latency — it is what keeps the offered load at the settlement
// rate, which is the throughput the workload reports.
type gate struct {
	mu           sync.Mutex
	cond         *sync.Cond
	pending      int   // Status.Pending at the last poll
	issuedAtPoll int64 // items issued before that poll was sent
	issued       int64 // items handed to Submit so far
	stop, done   chan struct{}
}

// startGate polls read every few milliseconds until stopped.
func startGate(read func() (pipeStat, error)) *gate {
	g := &gate{stop: make(chan struct{}), done: make(chan struct{})}
	g.cond = sync.NewCond(&g.mu)
	go func() {
		defer close(g.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			g.mu.Lock()
			issued := g.issued
			g.mu.Unlock()
			st, err := read()
			if err != nil {
				continue // the phase that owns the connection reports it
			}
			g.mu.Lock()
			g.pending, g.issuedAtPoll = st.pending, issued
			g.mu.Unlock()
			g.cond.Broadcast()
		}
	}()
	return g
}

// acquire blocks until n more items fit under the window. Everything
// issued since the last poll is assumed still pending, so the daemon's
// real queue never exceeds the window. A nil gate admits everything.
func (g *gate) acquire(n int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	for g.pending+int(g.issued-g.issuedAtPoll)+n > intakeWindow {
		g.cond.Wait()
	}
	g.issued += int64(n)
	g.mu.Unlock()
}

func (g *gate) close() {
	if g != nil {
		close(g.stop)
		<-g.done
	}
}
