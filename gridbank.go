// Package gridbank is the public API of this GridBank (GASA)
// implementation — a Grid-wide accounting and micro-payment service after
// Barmouta & Buyya, "GridBank: A Grid Accounting Services Architecture
// (GASA) for Distributed Systems Sharing and Integration" (IPPS 2003).
//
// The package re-exports the library's building blocks and provides
// one-call deployment helpers:
//
//   - the bank: Bank (ledger + payment protocols + §5.2 API), Server
//     (mutually-authenticated TLS front end), Client (the GridBank
//     Payment Module);
//   - payment instruments: GridCheques (pay-after-use), GridHash chains
//     (pay-as-you-go), direct transfers (pay-before-use);
//   - the GSP side: TradeServer (GTS with GRACE pricing models), Meter
//     (GRM), ChargingModule (GBCM with template accounts + grid-mapfile);
//   - the GSC side: DBC broker scheduling (cost/time/cost-time);
//   - substrates: PKI/GSI-style security, an embedded ledger store, a
//     discrete-event Grid simulator, the market directory, the §4
//     economic models, and §6 multi-branch settlement.
//
// Quickstart:
//
//	dep, _ := gridbank.NewDeployment(gridbank.DeploymentConfig{VO: "VO-A"})
//	defer dep.Close()
//	alice, _ := dep.NewUser("alice")
//	client, _ := dep.Dial(alice)
//	acct, _ := client.CreateAccount("VO-A", gridbank.GridDollar)
//
// See examples/ for complete scenarios.
package gridbank

import (
	"gridbank/internal/accounts"
	"gridbank/internal/branch"
	"gridbank/internal/broker"
	"gridbank/internal/charging"
	"gridbank/internal/core"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/economy"
	"gridbank/internal/gmd"
	"gridbank/internal/gridsim"
	"gridbank/internal/meter"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/replica"
	"gridbank/internal/rur"
	"gridbank/internal/shard"
	"gridbank/internal/trade"
	"gridbank/internal/usage"
)

// --- Currency ---------------------------------------------------------------

// Amount is a fixed-point quantity of Grid currency (µG$ resolution).
type Amount = currency.Amount

// Rate is a price per metered unit.
type Rate = currency.Rate

// CurrencyCode identifies a currency unit ("G$", "USD", ...).
type CurrencyCode = currency.Code

// GridDollar is the default Grid currency.
const GridDollar = currency.GridDollar

// Currency constructors and helpers.
var (
	// G converts whole Grid dollars to an Amount.
	G = currency.FromG
	// Micro converts micro-credits to an Amount.
	Micro = currency.FromMicro
	// ParseAmount parses a decimal G$ string.
	ParseAmount = currency.Parse
	// MustParseAmount parses or panics (literals in examples/tests).
	MustParseAmount = currency.MustParse
	// PerHour / PerMB / PerMBHour / PerSecond build rates.
	PerHour   = currency.PerHour
	PerMB     = currency.PerMB
	PerMBHour = currency.PerMBHour
	PerSecond = currency.PerSecond
)

// --- Security (GSI substitute) ----------------------------------------------

// CA is a certificate authority for a VO.
type CA = pki.CA

// Identity is a certificate + private key (user, GSP, bank, admin).
type Identity = pki.Identity

// TrustStore is the set of trusted CAs plus proxy-aware verification.
type TrustStore = pki.TrustStore

// IssueOptions parameterize certificate issuance.
type IssueOptions = pki.IssueOptions

// Signed is a detached-signature envelope (non-repudiation).
type Signed = pki.Signed

// Security constructors.
var (
	// NewCA creates a self-signed VO certificate authority.
	NewCA = pki.NewCA
	// NewTrustStore builds a trust store over CA certificates.
	NewTrustStore = pki.NewTrustStore
	// NewProxy creates a short-lived user proxy (single sign-on).
	NewProxy = pki.NewProxy
)

// --- Accounts & ledger --------------------------------------------------------

// Account is the §5.1 ACCOUNT record.
type Account = accounts.Account

// AccountID is a bank-branch-account identifier ("01-0001-00000001").
type AccountID = accounts.ID

// Transaction and Transfer are the §5.1 journal records.
type (
	Transaction = accounts.Transaction
	Transfer    = accounts.Transfer
	Statement   = accounts.Statement
)

// TransferOptions modify ledger transfers (locked-funds payout, RUR
// evidence).
type TransferOptions = accounts.TransferOptions

// AccountSummary condenses a statement into billing totals.
type AccountSummary = accounts.Summary

// Summarize folds a statement into an AccountSummary.
var Summarize = accounts.Summarize

// Store is the embedded database beneath a bank.
type Store = db.Store

// Journal is the store's write-ahead log interface.
type Journal = db.Journal

// Storage constructors.
var (
	// OpenStore opens a store over a journal (nil = volatile).
	OpenStore = db.Open
	// MemoryStore returns a volatile in-memory store.
	MemoryStore = db.MustOpenMemory
	// OpenFileJournal opens a durable newline-JSON journal file.
	OpenFileJournal = db.OpenFileJournal
	// OpenStoreWithCheckpoint restores from a checkpoint file and
	// replays only the journal tail written after it.
	OpenStoreWithCheckpoint = db.OpenWithCheckpoint
)

// --- The bank ----------------------------------------------------------------

// Bank is the GridBank server core: accounts layer + payment protocol
// layer + authorization, implementing the §5.2 API.
type Bank = core.Bank

// BankConfig configures NewBank.
type BankConfig = core.BankConfig

// Server exposes a Bank over mutually-authenticated TLS. Connections
// are multiplexed: requests on one connection dispatch concurrently
// (bounded by Server.MaxInFlight) and responses return as they
// complete, matched by ID; Server.MaxConns and Server.IdleTimeout gate
// and reap connections.
type Server = core.Server

// Server transport limit defaults (override the Server fields, or set
// DeploymentConfig.MaxConns / IdleTimeout / MaxInFlight).
const (
	DefaultMaxInFlight  = core.DefaultMaxInFlight
	DefaultIdleTimeout  = core.DefaultIdleTimeout
	DefaultWriteTimeout = core.DefaultWriteTimeout
)

// OpHandler serves a custom payment-scheme operation registered with
// Server.RegisterOp (the §3.2 extension point).
type OpHandler = core.OpHandler

// Client is the GridBank Payment Module (GBPM) transport: a pipelined
// multiplexed connection — concurrent callers share it without
// serializing their round trips.
type Client = core.Client

// Bank constructors.
var (
	NewBank   = core.NewBank
	NewServer = core.NewServer
	// Dial connects a client to a GridBank server.
	Dial = core.Dial
	// IsRemoteCode tests a client error for a stable server error code.
	IsRemoteCode = core.IsRemoteCode
	// NewIdempotencyKey mints a fresh token for Client.DirectTransferKeyed:
	// retrying an ambiguous failure under the same key is safe.
	NewIdempotencyKey = core.NewIdempotencyKey
)

// Stable server error codes.
const (
	CodeDenied       = core.CodeDenied
	CodeNotFound     = core.CodeNotFound
	CodeInsufficient = core.CodeInsufficient
	CodeInvalid      = core.CodeInvalid
	CodeDuplicate    = core.CodeDuplicate
	CodeExpired      = core.CodeExpired
	CodeConflict     = core.CodeConflict
	CodeReadOnly     = core.CodeReadOnly
	CodeUnavailable  = core.CodeUnavailable
	CodeOverloaded   = core.CodeOverloaded
	// CodeDeadlineExceeded marks a request the server shed because the
	// caller's deadline_ms budget elapsed before dispatch (nothing
	// executed; safe to retry).
	CodeDeadlineExceeded = core.CodeDeadlineExceeded
)

// Per-call deadline and resilience defaults (see Client.CallTimeout,
// BankConfig.DedupTTL).
const (
	DefaultCallTimeout = core.DefaultCallTimeout
	DefaultDedupTTL    = core.DefaultDedupTTL
)

// --- Usage settlement pipeline ----------------------------------------------

// UsagePipeline is the batched asynchronous usage-settlement engine:
// durable intake spool, exactly-once settlement keyed by submission ID,
// per-(shard, account) batching, backpressure.
type UsagePipeline = usage.Pipeline

// UsagePipelineConfig configures NewUsagePipeline.
type UsagePipelineConfig = usage.Config

// UsageSubmission is one priced usage record offered for settlement.
type UsageSubmission = usage.Submission

// UsageStats is the pipeline's observable state (Usage.Status).
type UsageStats = usage.Stats

// UsageSubmitResult summarizes one intake batch.
type UsageSubmitResult = usage.SubmitResult

// Usage pipeline constructors and errors.
var (
	// NewUsagePipeline builds a settlement pipeline (library wiring;
	// deployments use Deployment.EnableUsage).
	NewUsagePipeline = usage.New
	// WrapShardedLedger adapts a sharded ledger as a settlement target.
	WrapShardedLedger = usage.WrapSharded
	// ErrUsageOverloaded is the typed backpressure refusal.
	ErrUsageOverloaded = usage.ErrOverloaded
)

// --- Read replication --------------------------------------------------------

// ReplicaPublisher serves a primary's commit stream (snapshot bootstrap
// + WAL shipping) to followers over mutual TLS.
type ReplicaPublisher = replica.Publisher

// ReplicaPublisherConfig configures NewReplicaPublisher.
type ReplicaPublisherConfig = replica.PublisherConfig

// ReplicaFollower mirrors a primary's store from its commit stream,
// tracking applied sequence, lag and staleness, re-bootstrapping on
// stream gaps.
type ReplicaFollower = replica.Follower

// ReplicaFollowerConfig configures StartReplicaFollower.
type ReplicaFollowerConfig = replica.FollowerConfig

// ReadOnlyBank answers the query subset of the §5.2 API from a
// follower's store and redirects mutations to the primary.
type ReadOnlyBank = core.ReadOnlyBank

// ReadOnlyBankConfig configures NewReadOnlyBank.
type ReadOnlyBankConfig = core.ReadOnlyBankConfig

// RoutedClient spreads query traffic across read replicas within a
// max-staleness bound, sending mutations (and stale fallbacks) to the
// primary.
type RoutedClient = core.RoutedClient

// RouteOptions tune a RoutedClient (staleness bound, probe interval,
// retry policy, circuit breaker).
type RouteOptions = core.RouteOptions

// RetryPolicy governs a RoutedClient's automatic retries of retry-safe
// calls (idempotent reads and idempotency-keyed mutations).
type RetryPolicy = core.RetryPolicy

// ReplicaStatus is a server's replication role, position and staleness.
type ReplicaStatus = core.ReplicaStatusResponse

// Replication roles reported by ReplicaStatus.
const (
	RolePrimary = core.RolePrimary
	RoleReplica = core.RoleReplica
)

// Replication constructors.
var (
	NewReplicaPublisher  = replica.NewPublisher
	StartReplicaFollower = replica.StartFollower
	NewReadOnlyBank      = core.NewReadOnlyBank
	// NewReadOnlyServer serves a ReadOnlyBank over the same TLS gate as
	// a primary Server.
	NewReadOnlyServer = core.NewReadOnlyServer
	// NewRoutedClient builds a read-routing client over a primary and
	// replica connections.
	NewRoutedClient = core.NewRoutedClient
)

// --- Sharding ----------------------------------------------------------------

// ShardedLedger partitions accounts across N stores by consistent hash
// of the account ID, with two-phase-commit cross-shard transfers
// journaled in the shards' write-ahead logs.
type ShardedLedger = shard.Ledger

// ShardedLedgerConfig configures NewShardedLedger.
type ShardedLedgerConfig = shard.Config

// ShardRing is the consistent-hash placement ring (virtual nodes).
type ShardRing = shard.Ring

// ShardMap is the Shard.Map response: the placement parameters a
// client needs to compute account→shard mapping locally.
type ShardMap = core.ShardMapResponse

// Sharding constructors.
var (
	// NewShardedLedger builds a sharded ledger over one store per shard
	// and resolves any in-doubt cross-shard transfers left by a crash.
	NewShardedLedger = shard.New
	// NewShardRing builds a placement ring for (shards, vnodes).
	NewShardRing = shard.NewRing
	// NewBankWithLedger assembles a bank over a sharded ledger.
	NewBankWithLedger = core.NewBankWithLedger
)

// --- Payment instruments -------------------------------------------------------

// Cheque is the GridCheque payload (pay-after-use).
type Cheque = payment.Cheque

// SignedCheque couples a cheque with the bank's signature.
type SignedCheque = payment.SignedCheque

// ChequeClaim is a GSP's redemption request.
type ChequeClaim = payment.ChequeClaim

// Chain is the consumer-side GridHash chain (pay-as-you-go).
type Chain = payment.Chain

// SignedChain is the bank-signed chain commitment.
type SignedChain = payment.SignedChain

// ChainClaim is a chain redemption request.
type ChainClaim = payment.ChainClaim

// Instrument verification helpers (GSP-side checks). VerifyChain
// returns the signature-verified payload commitment — use it (never the
// unverified wrapper copy) for everything downstream. VerifyWordAfter
// verifies a streamed word incrementally against the last accepted one
// in O(delta) hashes; ChainReceiver packages that bookkeeping.
var (
	VerifyCheque     = payment.VerifyCheque
	VerifyChain      = payment.VerifyChain
	VerifyWord       = payment.VerifyWord
	VerifyWordAfter  = payment.VerifyWordAfter
	NewChainReceiver = payment.NewReceiver
)

// ChainReceiver tracks the payee side of one streaming chain: highest
// accepted word and the incremental-verification anchor.
type ChainReceiver = payment.Receiver

// --- Streaming micropayments (GridHash fast path) ---------------------------

// MicropayPipeline is the streaming chain-redemption pipeline: durable
// claim intake, per-(shard, drawer) batching, one redemption
// transaction per chain per batch.
type MicropayPipeline = micropay.Pipeline

// MicropayPipelineConfig configures NewMicropayPipeline.
type MicropayPipelineConfig = micropay.Config

// MicropayClaim is one chain tick offered for asynchronous redemption.
type MicropayClaim = micropay.Claim

// MicropayStats is the pipeline's observable state (Micropay.Status).
type MicropayStats = micropay.Stats

// MicropaySubmitResult summarizes one intake batch.
type MicropaySubmitResult = micropay.SubmitResult

// Micropay pipeline constructor and errors.
var (
	// NewMicropayPipeline builds a streaming redemption pipeline
	// (library wiring; deployments use Deployment.EnableMicropay).
	NewMicropayPipeline = micropay.New
	// ErrMicropayOverloaded is the typed backpressure refusal.
	ErrMicropayOverloaded = micropay.ErrOverloaded
)

// --- Usage records ---------------------------------------------------------

// UsageRecord is the standard Resource Usage Record.
type UsageRecord = rur.Record

// UsageItem is a chargeable item category.
type UsageItem = rur.Item

// Chargeable items (§2.1).
const (
	ItemCPU       = rur.ItemCPU
	ItemWallClock = rur.ItemWallClock
	ItemMemory    = rur.ItemMemory
	ItemStorage   = rur.ItemStorage
	ItemNetwork   = rur.ItemNetwork
	ItemSoftware  = rur.ItemSoftware
)

// AllUsageItems lists every chargeable item in canonical order.
var AllUsageItems = rur.AllItems

// RateCard is a per-item price list from a Grid Trade Server.
type RateCard = rur.RateCard

// ZeroRate charges nothing regardless of usage.
var ZeroRate = currency.ZeroRate

// CostStatement is a priced usage calculation.
type CostStatement = rur.CostStatement

// PriceUsage computes usage × rates (the §2.1 charge formula).
var PriceUsage = rur.Price

// UsageRecord encodings (the meter translates between them).
const (
	UsageFormatJSON = rur.FormatJSON
	UsageFormatXML  = rur.FormatXML
)

// EncodeUsageRecord / DecodeUsageRecord serialize records for wire
// submission and storage.
var (
	EncodeUsageRecord = rur.Encode
	DecodeUsageRecord = rur.Decode
)

// --- GSP side ---------------------------------------------------------------

// TradeServer is the Grid Trade Server (GTS).
type TradeServer = trade.Server

// TradeServerConfig configures a GTS.
type TradeServerConfig = trade.ServerConfig

// RateAgreement is a signed, concluded rate agreement.
type RateAgreement = trade.Agreement

// Pricing models.
type (
	PostedPrice     = trade.PostedPrice
	CommodityMarket = trade.CommodityMarket
)

// Meter is the Grid Resource Meter (GRM).
type Meter = meter.Meter

// ChargingModule is the GridBank Charging Module (GBCM).
type ChargingModule = charging.Module

// ChargingConfig configures a GBCM.
type ChargingConfig = charging.ModuleConfig

// TemplatePool manages §2.3 template local accounts.
type TemplatePool = charging.TemplatePool

// Mapfile is the grid-mapfile simulation.
type Mapfile = charging.Mapfile

// GSP-side constructors.
var (
	NewTradeServer    = trade.NewServer
	NewMeter          = meter.New
	NewChargingModule = charging.NewModule
	NewTemplatePool   = charging.NewTemplatePool
	NewMapfile        = charging.NewMapfile
)

// --- Market directory ---------------------------------------------------------

// MarketDirectory is the Grid Market Directory.
type MarketDirectory = gmd.Directory

// Advertisement is one GSP's directory entry.
type Advertisement = gmd.Advertisement

// MarketQuery filters directory lookups.
type MarketQuery = gmd.Query

// NewMarketDirectory creates a directory.
var NewMarketDirectory = gmd.New

// --- Broker (GSC side) ---------------------------------------------------------

// SchedStrategy selects a DBC algorithm.
type SchedStrategy = broker.Strategy

// DBC strategies (Nimrod-G).
const (
	CostOptimal = broker.CostOptimal
	TimeOptimal = broker.TimeOptimal
	CostTime    = broker.CostTime
)

// Candidate, QoS, Plan: broker planning types.
type (
	Candidate = broker.Candidate
	QoS       = broker.QoS
	Plan      = broker.Plan
)

// ScheduleJobs plans a bag of jobs under deadline/budget constraints.
var ScheduleJobs = broker.Schedule

// --- Simulator -----------------------------------------------------------------

// Sim is the discrete-event Grid simulator.
type Sim = gridsim.Sim

// SimJob is a simulated job.
type SimJob = gridsim.Job

// SimResource is a simulated GSP resource.
type SimResource = gridsim.Resource

// ResourceConfig describes a simulated resource.
type ResourceConfig = gridsim.ResourceConfig

// JobResult is a completed simulated job with raw usage.
type JobResult = gridsim.JobResult

// BagOptions parameterize BagWorkload.
type BagOptions = gridsim.BagOptions

// Simulator constructors.
var (
	NewSim = gridsim.New
	// BagWorkload generates a deterministic bag-of-tasks workload.
	BagWorkload = gridsim.Bag
)

// --- Economy -----------------------------------------------------------------

// CoopSim drives the §4.1 co-operative bartering community.
type CoopSim = economy.CoopSim

// CoopParticipant is one co-op member.
type CoopParticipant = economy.Participant

// PricingAuthority regulates community prices toward equilibrium.
type PricingAuthority = economy.PricingAuthority

// PriceEstimator values resources from transaction history (§4.2).
type PriceEstimator = economy.Estimator

// ResourceSpec describes hardware for valuation.
type ResourceSpec = economy.ResourceSpec

// PricePoint is one historical observation.
type PricePoint = economy.PricePoint

// Economy constructors.
var (
	NewCoopSim        = economy.NewCoopSim
	NewPriceEstimator = economy.NewEstimator
)

// --- Multi-branch -----------------------------------------------------------

// BranchNetwork is the §6 multi-VO settlement network.
type BranchNetwork = branch.Network

// BankBranch is one VO's branch in the network.
type BankBranch = branch.Branch

// NewBranchNetwork creates an empty settlement network.
var NewBranchNetwork = branch.NewNetwork
