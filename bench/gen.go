package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/usage"
)

// Input generation. Every random choice the benchmark makes comes from
// a PCG stream derived from (-seed, workload, caller), so the same seed
// yields the same request sequences; the daemon only ever sees the
// generated requests. Bank-chosen values (account numbers, instrument
// serials, chain seeds) are inputs the loader reads back, not choices.

// Population sizes and workload shape constants (ISSUE 12).
const (
	numShards    = 2
	numConsumers = 1000
	numProviders = 64

	// consumerFunds is deposited into every consumer in set-up: far more
	// than any run spends, so no operation fails for lack of funds.
	consumerFundsG = 10_000
	providerFundsG = 1

	crossSharePayBefore = 0.25
	crossSharePayAfter  = 0.25
	crossShareUsage     = 0.05

	chequeLimitG = 1 // §3.4 lock per GridCheque

	chainLength   = 4096
	chainPerWordU = 100 // µG$ per GridHash word
	claimEvery    = 16  // ticks between claims on one stream
	liveStreams   = 64
	claimsPerCall = 32
	usagePerCall  = 32
)

// account is one bank account as the loader knows it.
type account struct {
	ID   accounts.ID
	Cert string
}

// population is the funded account set, split by role and by the shard
// each account's ID hashes to.
type population struct {
	consumers []account
	providers []account
	ring      *shard.Ring
	consBy    [numShards][]int // consumer indices per shard
	provBy    [numShards][]int // provider indices per shard
}

// newPopulation assigns roles by account-number rank — the lowest
// numProviders IDs are providers, the rest consumers — so the split
// does not depend on the order concurrent creates happened to land in.
// all must be sorted by ID.
func newPopulation(all []account, providers int) (*population, error) {
	if len(all) <= providers {
		return nil, fmt.Errorf("population of %d accounts cannot hold %d providers", len(all), providers)
	}
	p := &population{
		providers: all[:providers],
		consumers: all[providers:],
		ring:      shard.MustNewRing(numShards, 0),
	}
	for i, a := range p.consumers {
		s := p.ring.ShardFor(string(a.ID))
		p.consBy[s] = append(p.consBy[s], i)
	}
	for i, a := range p.providers {
		s := p.ring.ShardFor(string(a.ID))
		p.provBy[s] = append(p.provBy[s], i)
	}
	for s := 0; s < numShards; s++ {
		if len(p.consBy[s]) == 0 || len(p.provBy[s]) == 0 {
			return nil, fmt.Errorf("shard %d holds %d consumers and %d providers; need both", s, len(p.consBy[s]), len(p.provBy[s]))
		}
	}
	return p, nil
}

// syntheticPopulation builds the population the generators see when no
// daemon is involved (tests, the in-process ladder): account numbers
// 1..n exactly as a fresh bank allocates them.
func syntheticPopulation() *population {
	all := make([]account, numConsumers+numProviders)
	for i := range all {
		all[i] = account{ID: accounts.MakeID(1, 1, uint64(i+1)), Cert: fmt.Sprintf("CN=acct-%04d,O=VO-Bench", i)}
	}
	p, err := newPopulation(all, numProviders)
	if err != nil {
		panic(err) // fixed inputs: both shards are populated
	}
	return p
}

func (p *population) consumerShard(i int) int { return p.ring.ShardFor(string(p.consumers[i].ID)) }
func (p *population) providerShard(i int) int { return p.ring.ShardFor(string(p.providers[i].ID)) }

// pickPair draws a uniformly random consumer and a provider, uniform
// within its side: on another shard than the consumer when cross is
// set, on the same one otherwise.
func (p *population) pickPair(r *rand.Rand, cross bool) (consumer, provider int) {
	consumer = r.IntN(len(p.consumers))
	s := p.consumerShard(consumer)
	if cross {
		s = (s + 1 + r.IntN(numShards-1)) % numShards
	}
	side := p.provBy[s]
	return consumer, side[r.IntN(len(side))]
}

// pickDrawerFor draws a consumer for a fixed payee, from another shard
// than the payee's when cross is set.
func (p *population) pickDrawerFor(r *rand.Rand, provider int, cross bool) int {
	s := p.providerShard(provider)
	if cross {
		s = (s + 1 + r.IntN(numShards-1)) % numShards
	}
	side := p.consBy[s]
	return side[r.IntN(len(side))]
}

// workloadNames fixes the order (and the PCG stream index) of the four
// workloads; later issues cite the names.
var workloadNames = []string{"pay_before", "pay_after", "pay_as_you_go", "usage_batch"}

func workloadIndex(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return -1
}

// callerRand is the private random stream of one caller of one
// workload. Caller numbers ≥ soloCaller are the set-up and solo streams.
func callerRand(seed uint64, workload string, caller int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(workloadIndex(workload)+1)<<32|uint64(caller)))
}

const (
	soloCaller    = 1 << 16 // the solo phase's stream
	preloadCaller = 1 << 17 // preload callers are preloadCaller+i
)

// --- operations ---------------------------------------------------------------

// transferOp is one pay_before DirectTransferKeyed.
type transferOp struct {
	From, To accounts.ID
	Provider int
	Amount   currency.Amount
	Key      string
}

// chequeOp is one pay_after issue → sign claim → redeem.
type chequeOp struct {
	Drawer accounts.ID
	Amount currency.Amount // the claim; the cheque limit is chequeLimitG
	RUR    []byte
}

// usageOp is one usage_batch Usage.Submit of usagePerCall charges.
type usageOp struct {
	Subs      []usage.Submission
	Providers []int             // recipient of each submission
	Amounts   []currency.Amount // price of each submission under benchRates
}

// opGen generates one caller's operation sequence.
type opGen struct {
	pop    *population
	r      *rand.Rand
	prefix string // makes keys and IDs unique per (workload, caller) within the run's own daemon
	n      int
	debt   float64   // cross-shard operations owed, see crosses
	h      hash.Hash // running digest of everything generated
}

func newOpGen(pop *population, seed uint64, workload string, caller int) *opGen {
	r := callerRand(seed, workload, caller)
	return &opGen{
		pop:    pop,
		r:      r,
		prefix: fmt.Sprintf("%s-%d", workload, caller),
		debt:   r.Float64(), // a random phase, so callers do not cross in step
		h:      sha256.New(),
	}
}

// crosses decides whether the next operation spans shards. The share
// is met exactly rather than by coin flips — at share 0.25 every fourth
// operation of a caller crosses — so the counts a run reports (WAL
// bytes, fsyncs per operation) do not carry a seed's luck; which
// accounts take part stays random.
func (g *opGen) crosses(share float64) bool {
	g.debt += share
	if g.debt >= 1 {
		g.debt--
		return true
	}
	return false
}

func (g *opGen) note(parts ...any) {
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			g.h.Write([]byte(v))
		case []byte:
			g.h.Write(v)
		case int64:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(v))
			g.h.Write(b[:])
		}
		g.h.Write([]byte{0})
	}
}

// digest is the hex SHA-256 of every operation generated so far.
func (g *opGen) digest() string { return hex.EncodeToString(g.h.Sum(nil)) }

func (g *opGen) nextTransfer() transferOp {
	c, p := g.pop.pickPair(g.r, g.crosses(crossSharePayBefore))
	g.n++
	op := transferOp{
		From:     g.pop.consumers[c].ID,
		To:       g.pop.providers[p].ID,
		Provider: p,
		Amount:   currency.FromMicro(1 + g.r.Int64N(1000)),
		Key:      fmt.Sprintf("%s-%d", g.prefix, g.n),
	}
	g.note(string(op.From), string(op.To), op.Amount.Micro(), op.Key)
	return op
}

// nextCheque draws the drawer for a cheque made out to provider 0 — a
// GSP redeems into its one account, which is what makes the payee row
// hot.
func (g *opGen) nextCheque() chequeOp {
	c := g.pop.pickDrawerFor(g.r, 0, g.crosses(crossSharePayAfter))
	g.n++
	amount := currency.FromMicro(1 + g.r.Int64N(chequeLimitG*currency.Scale))
	jobID := fmt.Sprintf("%s-%d", g.prefix, g.n)
	op := chequeOp{
		Drawer: g.pop.consumers[c].ID,
		Amount: amount,
		RUR:    g.usageRecord(jobID, g.pop.consumers[c].Cert, g.pop.providers[0].Cert),
	}
	g.note(string(op.Drawer), op.Amount.Micro(), op.RUR)
	return op
}

func (g *opGen) nextUsage(n int) usageOp {
	op := usageOp{
		Subs:      make([]usage.Submission, n),
		Providers: make([]int, n),
		Amounts:   make([]currency.Amount, n),
	}
	for i := range op.Subs {
		c, p := g.pop.pickPair(g.r, g.crosses(crossShareUsage))
		g.n++
		id := fmt.Sprintf("%s-%d", g.prefix, g.n)
		raw, amount := g.pricedUsageRecord(id, g.pop.consumers[c].Cert, g.pop.providers[p].Cert)
		op.Subs[i] = usage.Submission{
			ID:        id,
			Drawer:    g.pop.consumers[c].ID,
			Recipient: g.pop.providers[p].ID,
			RUR:       raw,
			Rates:     benchRates,
		}
		op.Providers[i] = p
		op.Amounts[i] = amount
		g.note(id, string(op.Subs[i].Drawer), string(op.Subs[i].Recipient), raw)
	}
	return op
}

// streamPick is the (drawer, payee) choice for a fresh GridHash stream.
type streamPick struct {
	Consumer, Provider int
}

// nextStream draws a stream's two parties uniformly; local pins the
// payee to the drawer's shard (the solo phase times the common,
// single-shard redemption).
func (g *opGen) nextStream(local bool) streamPick {
	c, p := g.r.IntN(len(g.pop.consumers)), g.r.IntN(len(g.pop.providers))
	if local {
		c, p = g.pop.pickPair(g.r, false)
	}
	g.n++
	g.note(string(g.pop.consumers[c].ID), string(g.pop.providers[p].ID))
	return streamPick{Consumer: c, Provider: p}
}

// --- RUR bodies -----------------------------------------------------------------

// benchRates is the one rate card every usage_batch submission is
// priced under: per-unit prices with divisor 1, so a charge is exactly
// Σ quantity × price and the loader can predict it without calling the
// bank's pricing code.
var benchRates = &rur.RateCard{
	Provider: "CN=gsp-rates,O=VO-Bench",
	Currency: currency.GridDollar,
	Rates: map[rur.Item]currency.Rate{
		rur.ItemCPU:       currency.PerSecond(3),
		rur.ItemWallClock: currency.PerSecond(1),
		rur.ItemMemory:    currency.PerMB(2),
		rur.ItemStorage:   currency.PerMB(1),
		rur.ItemNetwork:   currency.PerMB(5),
	},
}

// benchItems are the five usage lines of every generated record, in
// record order.
var benchItems = []rur.Item{rur.ItemCPU, rur.ItemWallClock, rur.ItemMemory, rur.ItemStorage, rur.ItemNetwork}

// rurEpoch anchors generated job intervals (the paper's year), keeping
// record bytes a pure function of the seed.
var rurEpoch = time.Date(2003, time.April, 22, 0, 0, 0, 0, time.UTC)

// pricedUsageRecord builds a ~600 B JSON RUR with five usage lines and
// returns it with its price under benchRates.
func (g *opGen) pricedUsageRecord(jobID, consumerCert, providerCert string) ([]byte, currency.Amount) {
	start := rurEpoch.Add(time.Duration(g.r.Int64N(86400)) * time.Second)
	wall := 60 + g.r.Int64N(3600)
	rec := rur.Record{
		User: rur.UserDetails{
			Host:            fmt.Sprintf("submit-%03d.campus.vo-bench.example.org", g.r.IntN(1000)),
			CertificateName: consumerCert,
		},
		Job: rur.JobDetails{
			JobID:       jobID,
			Application: "parameter-sweep/molecular-docking-screen-v2.3",
			Start:       start,
			End:         start.Add(time.Duration(wall) * time.Second),
		},
		Resource: rur.ResourceDetails{
			Host:            fmt.Sprintf("node-%03d.cluster.vo-bench.example.org", g.r.IntN(1000)),
			CertificateName: providerCert,
			HostType:        "x86_64-linux-smp",
			LocalJobID:      fmt.Sprintf("pbs.%07d", g.r.IntN(10_000_000)),
		},
		Usage: make([]rur.Usage, len(benchItems)),
	}
	var total int64
	for i, item := range benchItems {
		q := 1 + g.r.Int64N(wall)
		rec.Usage[i] = rur.Usage{Item: item, Quantity: q}
		total += q * benchRates.Rates[item].MicroPerUnit
	}
	raw, err := rur.Encode(&rec, rur.FormatJSON)
	if err != nil {
		panic(err) // a plain struct of strings, times and ints always marshals
	}
	return raw, currency.FromMicro(total)
}

func (g *opGen) usageRecord(jobID, consumerCert, providerCert string) []byte {
	raw, _ := g.pricedUsageRecord(jobID, consumerCert, providerCert)
	return raw
}
