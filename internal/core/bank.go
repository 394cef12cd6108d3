package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/micropay"
	"gridbank/internal/obs"
	"gridbank/internal/payment"
	"gridbank/internal/pki"
	"gridbank/internal/shard"
)

// Instrument state tables. Cheque rows live on the drawer's shard store
// — the same store as the drawer's ACCOUNT row — so issue, redemption
// and release each commit the row and the ledger effect in ONE
// transaction. (Chain rows live in micropay.TableChains, placed the same
// way and owned by the chain redeemer.) The administrator table is
// bank-global and lives on the metadata store.
const (
	tableCheques = "cheques"
	tableAdmins  = "admins"
)

// Instrument states.
const (
	stateOutstanding = "outstanding"
	stateRedeemed    = "redeemed"
	stateReleased    = "released"
)

// Errors specific to the bank layer.
var (
	ErrDenied          = errors.New("core: caller not authorized for this operation")
	ErrUnknownSubject  = errors.New("core: subject has no account and is not an administrator")
	ErrUnknownSerial   = errors.New("core: unknown instrument serial")
	ErrAlreadyRedeemed = errors.New("core: instrument already redeemed")
	ErrNotExpired      = errors.New("core: instrument not yet expired")
	ErrStaleIndex      = errors.New("core: chain index not beyond redeemed position")
)

type chequeRow struct {
	Cheque   payment.Cheque  `json:"cheque"`
	State    string          `json:"state"`
	Redeemed currency.Amount `json:"redeemed"`
}

// Notifier delivers a signed transfer confirmation to a GSP address, for
// the pay-before-use flow's "confirmation sent to the specified URL of
// the GSP via another secure channel" (§3.1). Implementations must be
// non-blocking or fast; delivery is best-effort and the receipt is also
// returned to the caller.
type Notifier func(address string, receipt *pki.Signed)

// Bank is the GridBank server core: the §5.2 API implemented over the
// accounts ledger with instrument registries for double-spend prevention.
// All methods take the authenticated caller subject (the base certificate
// name from the Security Layer) and enforce ownership/admin authorization.
type Bank struct {
	led Ledger
	id  *pki.Identity
	ts  *pki.TrustStore
	now func() time.Time

	notify Notifier

	// usage is the attached settlement pipeline (nil until SetUsage);
	// usageMu guards the attach-vs-dispatch race during wiring.
	usageMu sync.RWMutex
	usage   UsageEngine

	// micropay is the attached streaming chain-redemption pipeline (nil
	// until SetMicropay); micropayMu mirrors usageMu.
	micropayMu sync.RWMutex
	micropay   MicropayEngine

	// chains owns every GridHash chain state transition: the chain row
	// advance and the money movement commit in one store transaction on
	// the drawer's shard (see micropay.Redeemer). Shared with the
	// streaming pipeline so both paths serialize per serial.
	chains *micropay.Redeemer

	// receipts amortizes ECDSA receipt signing for DirectTransfer
	// callers that opt into batched receipts.
	receipts *receiptBatcher

	// dedupTTL bounds op_dedup idempotency-marker retention; lastSweep
	// (unix nanos) CAS-claims the periodic sweep so exactly one keyed
	// mutation per interval pays the scan.
	dedupTTL  time.Duration
	lastSweep atomic.Int64

	// obsReg is the process telemetry registry Metrics.Snapshot serves
	// (nil = observability disabled; the op answers Enabled=false).
	obsReg *obs.Registry
}

// BankConfig configures a Bank.
type BankConfig struct {
	// Identity is the bank's signing identity (cheques, chain
	// commitments, receipts).
	Identity *pki.Identity
	// Trust is the CA set for verifying clients and instruments.
	Trust *pki.TrustStore
	// Admins lists administrator certificate names bootstrapped into the
	// admin table (§3.2 "administrator tables").
	Admins []string
	// Now supplies time; defaults to time.Now.
	Now func() time.Time
	// Notifier delivers direct-transfer confirmations; optional.
	Notifier Notifier
	// Bank and Branch numbers for issued account IDs.
	Bank   string
	Branch string
	// DedupTTL bounds how long op_dedup idempotency markers are kept
	// (the replay-protection window for keyed mutations). Zero selects
	// DefaultDedupTTL; negative disables the sweep (markers kept
	// forever).
	DedupTTL time.Duration
	// Obs is the process telemetry registry the Metrics.Snapshot op
	// serves. Optional; nil answers Enabled=false with an empty
	// snapshot.
	Obs *obs.Registry
}

// DefaultDedupTTL is the idempotency-marker retention when
// BankConfig.DedupTTL is zero: far longer than any sane retry horizon,
// short enough to bound the op_dedup table.
const DefaultDedupTTL = 24 * time.Hour

// NewBank assembles a bank over a single store: a one-shard ledger.
func NewBank(store *db.Store, cfg BankConfig) (*Bank, error) {
	led, err := shard.New([]*db.Store{store}, shard.Config{Bank: cfg.Bank, Branch: cfg.Branch, Now: cfg.Now})
	if err != nil {
		return nil, err
	}
	return NewBankWithLedger(led, cfg)
}

// NewBankWithLedger assembles a bank over an arbitrary Ledger — the
// sharded dispatch path. The ledger's clock must match cfg.Now (the
// deployment layer passes the same function to both).
func NewBankWithLedger(led Ledger, cfg BankConfig) (*Bank, error) {
	if cfg.Identity == nil || cfg.Trust == nil {
		return nil, errors.New("core: bank requires an identity and a trust store")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := led.Store().EnsureTable(tableAdmins); err != nil {
		return nil, err
	}
	for i := 0; i < led.Shards(); i++ {
		if err := led.ShardStore(i).EnsureTable(tableCheques); err != nil {
			return nil, err
		}
	}
	if cfg.DedupTTL == 0 {
		cfg.DedupTTL = DefaultDedupTTL
	}
	b := &Bank{led: led, id: cfg.Identity, ts: cfg.Trust, now: cfg.Now, notify: cfg.Notifier, dedupTTL: cfg.DedupTTL, obsReg: cfg.Obs}
	b.lastSweep.Store(cfg.Now().UnixNano())
	if err := b.moveChequesHome(); err != nil {
		return nil, err
	}
	red, err := micropay.NewRedeemer(led, cfg.Now)
	if err != nil {
		return nil, err
	}
	b.chains = red
	b.receipts = newReceiptBatcher(cfg.Identity, cfg.Now)
	for _, admin := range cfg.Admins {
		if err := b.addAdmin(admin); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Ledger exposes the dispatch surface the bank routes through (the
// sharded ledger in a sharded deployment).
func (b *Bank) Ledger() Ledger { return b.led }

// ChainRedeemer exposes the bank's chain redemption engine, for wiring
// the streaming micropay pipeline over the same per-serial locks.
func (b *Bank) ChainRedeemer() *micropay.Redeemer { return b.chains }

// ShardMap reports the deployment's placement parameters. The primary
// serves every shard itself (ShardIndex −1): clients use the map to
// route replica reads, not primary traffic.
func (b *Bank) ShardMap() (*ShardMapResponse, error) {
	shards, vnodes := b.led.ShardTopology()
	return &ShardMapResponse{Shards: shards, Vnodes: vnodes, ShardIndex: -1}, nil
}

// Identity returns the bank's signing identity.
func (b *Bank) Identity() *pki.Identity { return b.id }

// Trust returns the bank's trust store.
func (b *Bank) Trust() *pki.TrustStore { return b.ts }

// Now returns the bank's current time (the injected clock in
// simulations, wall clock otherwise).
func (b *Bank) Now() time.Time { return b.now() }

// MetricsSnapshot answers the Metrics.Snapshot op: the process
// telemetry registry at this instant, admin-only (telemetry names
// subjects and ops — operational data, not for arbitrary account
// holders). With no registry attached it reports Enabled=false rather
// than erroring, so a fleet scrape tolerates mixed configurations.
func (b *Bank) MetricsSnapshot(caller string) (*MetricsSnapshotResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	return &MetricsSnapshotResponse{
		Enabled:  b.obsReg != nil,
		Snapshot: b.obsReg.SnapshotAt(b.now()),
	}, nil
}

// SetObs attaches (or replaces) the telemetry registry served by
// Metrics.Snapshot. Wiring-time only, not concurrency-safe with
// serving.
func (b *Bank) SetObs(reg *obs.Registry) { b.obsReg = reg }

// ReplicaStatus reports this server's replication role: a primary is
// its own head, with zero staleness. Answering the same op as replicas
// lets read-routing clients treat every endpoint uniformly.
func (b *Bank) ReplicaStatus() (*ReplicaStatusResponse, error) {
	seq := b.led.Store().CurrentSeq()
	return &ReplicaStatusResponse{Role: RolePrimary, AppliedSeq: seq, HeadSeq: seq}, nil
}

func (b *Bank) addAdmin(subject string) error {
	if subject == "" {
		return errors.New("core: empty admin subject")
	}
	return b.led.Store().Update(func(tx *db.Tx) error {
		return tx.Put(tableAdmins, subject, []byte("1"))
	})
}

// IsAdmin reports whether the subject is in the administrator table.
func (b *Bank) IsAdmin(subject string) bool {
	_, err := b.led.Store().Get(tableAdmins, subject)
	return err == nil
}

// Authorize implements the §3.2 connection gate: a subject may hold a
// session if it has an account or administrator privilege. Unknown
// subjects are refused — "this provides a mechanism to limit
// denial-of-service attacks" — except that the server layer admits them
// for the single CreateAccount operation (you cannot have an account
// before you open one).
func (b *Bank) Authorize(subject string) error {
	if b.IsAdmin(subject) {
		return nil
	}
	if _, err := b.led.FindByCertificate(subject, ""); err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrUnknownSubject, subject)
}

// requireOwner returns the account if the caller owns it or is an admin.
func (b *Bank) requireOwner(caller string, id accounts.ID) (*accounts.Account, error) {
	a, err := b.led.Details(id)
	if err != nil {
		return nil, err
	}
	if a.CertificateName != caller && !b.IsAdmin(caller) {
		return nil, fmt.Errorf("%w: %s does not own %s", ErrDenied, caller, id)
	}
	return a, nil
}

// CreateAccount implements §5.2 Create New Account for the authenticated
// caller.
func (b *Bank) CreateAccount(caller string, req *CreateAccountRequest) (*CreateAccountResponse, error) {
	a, err := b.led.CreateAccount(caller, req.OrganizationName, req.Currency)
	if err != nil {
		return nil, err
	}
	return &CreateAccountResponse{Account: *a}, nil
}

// AccountDetails implements §5.2 Request Account Details / Check Balance.
func (b *Bank) AccountDetails(caller string, req *AccountDetailsRequest) (*AccountDetailsResponse, error) {
	a, err := b.requireOwner(caller, req.AccountID)
	if err != nil {
		return nil, err
	}
	return &AccountDetailsResponse{Account: *a}, nil
}

// UpdateAccount implements §5.2 Update Account Details.
func (b *Bank) UpdateAccount(caller string, req *UpdateAccountRequest) (*AccountDetailsResponse, error) {
	if _, err := b.requireOwner(caller, req.AccountID); err != nil {
		return nil, err
	}
	a, err := b.led.UpdateDetails(req.AccountID, req.CertificateName, req.OrganizationName)
	if err != nil {
		return nil, err
	}
	return &AccountDetailsResponse{Account: *a}, nil
}

// AccountStatement implements §5.2 Request Account Statement.
func (b *Bank) AccountStatement(caller string, req *AccountStatementRequest) (*AccountStatementResponse, error) {
	if _, err := b.requireOwner(caller, req.AccountID); err != nil {
		return nil, err
	}
	st, err := b.led.Statement(req.AccountID, req.Start, req.End)
	if err != nil {
		return nil, err
	}
	return &AccountStatementResponse{Statement: *st}, nil
}

// CheckFunds implements §5.2 Perform Funds Availability Check.
func (b *Bank) CheckFunds(caller string, req *CheckFundsRequest) (*ConfirmationResponse, error) {
	if _, err := b.requireOwner(caller, req.AccountID); err != nil {
		return nil, err
	}
	if err := b.led.CheckFunds(req.AccountID, req.Amount); err != nil {
		return nil, err
	}
	return &ConfirmationResponse{Confirmed: true}, nil
}

// DirectTransfer implements the pay-before-use policy (§3.1, §5.2).
func (b *Bank) DirectTransfer(caller string, req *DirectTransferRequest) (*DirectTransferResponse, error) {
	from, err := b.requireOwner(caller, req.FromAccountID)
	if err != nil {
		return nil, err
	}
	if req.IdempotencyKey != "" {
		b.maybeSweepDedup()
	}
	tr, err := b.led.Transfer(req.FromAccountID, req.ToAccountID, req.Amount, accounts.TransferOptions{DedupKey: req.IdempotencyKey})
	if err != nil {
		return nil, err
	}
	rcpt := TransferReceipt{
		TransactionID: tr.TransactionID,
		Drawer:        tr.DrawerAccountID,
		Recipient:     tr.RecipientAccountID,
		Amount:        tr.Amount,
		Currency:      from.Currency,
		Date:          tr.Date,
	}
	if req.BatchReceipt {
		// Amortized signing: one bank signature covers every concurrent
		// opt-in transfer inside the batch window.
		proof, err := b.receipts.sign(rcpt)
		if err != nil {
			return nil, err
		}
		if req.RecipientAddress != "" && b.notify != nil {
			b.notify(req.RecipientAddress, proof.Envelope)
		}
		return &DirectTransferResponse{TransactionID: tr.TransactionID, BatchProof: proof}, nil
	}
	receipt, err := pki.Sign(b.id, ReceiptContext, rcpt)
	if err != nil {
		return nil, err
	}
	if req.RecipientAddress != "" && b.notify != nil {
		b.notify(req.RecipientAddress, receipt)
	}
	return &DirectTransferResponse{TransactionID: tr.TransactionID, Receipt: receipt}, nil
}

// maybeSweepDedup lazily garbage-collects expired idempotency markers:
// every dedupTTL/4, the first keyed mutation to notice CAS-claims the
// interval and runs the sweep on its own goroutine's time. Losing the
// CAS means another caller is sweeping; sweep errors are dropped (the
// next interval retries, and an unswept marker is only storage, never
// incorrectness).
func (b *Bank) maybeSweepDedup() {
	ttl := b.dedupTTL
	if ttl <= 0 {
		return
	}
	now := b.now()
	last := b.lastSweep.Load()
	if now.Sub(time.Unix(0, last)) < ttl/4 {
		return
	}
	if !b.lastSweep.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	_, _ = b.led.SweepDedup(now.Add(-ttl))
}

// RequestCheque implements §5.2 Request GridCheque: sign the cheque,
// then lock the amount (§3.4 payment guarantee) and persist the serial
// in one transaction on the drawer's shard. A cheque that fails to
// commit was never handed out, so there is nothing to roll back.
func (b *Bank) RequestCheque(caller string, req *RequestChequeRequest) (*RequestChequeResponse, error) {
	acct, err := b.requireOwner(caller, req.AccountID)
	if err != nil {
		return nil, err
	}
	if req.PayeeCert == "" {
		return nil, errors.New("core: cheque requires a payee certificate name")
	}
	ttl := req.TTL
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	serial, err := payment.NewSerial()
	if err != nil {
		return nil, err
	}
	now := b.now()
	cheque := payment.Cheque{
		Serial:          serial,
		DrawerAccountID: req.AccountID,
		DrawerCert:      acct.CertificateName,
		PayeeCert:       req.PayeeCert,
		Limit:           req.Amount,
		Currency:        acct.Currency,
		IssuedAt:        now,
		Expires:         now.Add(ttl),
	}
	if err := cheque.Validate(); err != nil {
		return nil, err
	}
	signed, err := payment.IssueCheque(b.id, cheque)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(&chequeRow{Cheque: cheque, State: stateOutstanding})
	if err != nil {
		return nil, err
	}
	home := b.led.ShardFor(req.AccountID)
	mgr := b.led.ShardManager(home)
	err = b.led.ShardStore(home).Update(func(tx *db.Tx) error {
		if err := mgr.LockTx(tx, req.AccountID, req.Amount); err != nil {
			return err
		}
		return tx.Insert(tableCheques, serial, raw)
	})
	if err != nil {
		return nil, err
	}
	return &RequestChequeResponse{Cheque: *signed}, nil
}

// moveChequesHome moves cheque rows an older binary registered on the
// metadata store to their drawers' shards. It runs before the bank
// serves and is idempotent: the home copy is written first and never
// overwritten, the stray deleted second, so a crash in between is
// finished by the next boot.
func (b *Bank) moveChequesHome() error {
	if b.led.Shards() == 1 {
		return nil // every row is home
	}
	meta := b.led.Store()
	strays := make(map[int]map[string][]byte)
	var scanErr error
	err := meta.Scan(tableCheques, func(serial string, value []byte) bool {
		var row chequeRow
		if scanErr = json.Unmarshal(value, &row); scanErr != nil {
			scanErr = fmt.Errorf("core: corrupt cheque row %s: %w", serial, scanErr)
			return false
		}
		if home := b.led.ShardFor(row.Cheque.DrawerAccountID); b.led.ShardStore(home) != meta {
			if strays[home] == nil {
				strays[home] = make(map[string][]byte)
			}
			strays[home][serial] = append([]byte(nil), value...)
		}
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	for home, rows := range strays {
		err := b.led.ShardStore(home).Update(func(tx *db.Tx) error {
			for serial, raw := range rows {
				if ok, err := tx.Exists(tableCheques, serial); err != nil {
					return err
				} else if !ok {
					if err := tx.Put(tableCheques, serial, raw); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = meta.Update(func(tx *db.Tx) error {
			for serial := range rows {
				if err := tx.Delete(tableCheques, serial); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// chequeRowTx reads a cheque row inside tx.
func chequeRowTx(tx *db.Tx, serial string) (*chequeRow, error) {
	raw, err := tx.Get(tableCheques, serial)
	if errors.Is(err, db.ErrNoRecord) {
		return nil, fmt.Errorf("%w: cheque %s", ErrUnknownSerial, serial)
	}
	if err != nil {
		return nil, err
	}
	var row chequeRow
	if err := json.Unmarshal(raw, &row); err != nil {
		return nil, fmt.Errorf("core: corrupt cheque row: %w", err)
	}
	return &row, nil
}

// putOutstandingTx moves an outstanding cheque row to its final state
// inside tx; any other current state refuses with ErrAlreadyRedeemed.
// Reading the row inside the transaction that also moves the money is
// what makes a cheque pay (or release) exactly once.
func putOutstandingTx(tx *db.Tx, row *chequeRow, state string, redeemed currency.Amount) error {
	if row.State != stateOutstanding {
		return fmt.Errorf("%w: cheque %s is %s", ErrAlreadyRedeemed, row.Cheque.Serial, row.State)
	}
	row.State, row.Redeemed = state, redeemed
	raw, err := json.Marshal(row)
	if err != nil {
		return err
	}
	return tx.Put(tableCheques, row.Cheque.Serial, raw)
}

// RedeemCheque implements §5.2 Redeem GridCheque. The caller must be the
// payee named on the cheque; the claim amount is paid from the drawer's
// locked funds, the unspent remainder of the lock is released, and the
// serial is marked redeemed (double-spend prevention) — all in one
// transaction on the drawer's shard. The RUR travels into the TRANSFER
// record as evidence.
func (b *Bank) RedeemCheque(caller string, req *RedeemChequeRequest) (*RedeemChequeResponse, error) {
	cheque, err := b.verifiedClaim(req, caller)
	if err != nil {
		return nil, err
	}
	payeeAcct, err := b.led.FindByCertificate(caller, cheque.Currency)
	if err != nil {
		return nil, fmt.Errorf("core: payee has no %s account: %w", cheque.Currency, err)
	}
	return b.redeemCheque(cheque, &req.Claim, payeeAcct.AccountID)
}

// RedeemChequeInterbank settles a cheque claim presented by a
// correspondent branch on behalf of a payee banked at that branch (§6:
// "if a GSC is from one VO and GSP is from another, then their respective
// servers will need to define protocols for settling accounts between the
// branches"). The claim is paid from the drawer's locked funds into the
// correspondent's vostro account at this bank; the correspondent credits
// the payee on its own books. The caller must own the vostro account.
// The usual payee-identity check is replaced by the correspondent's
// attestation — it verified the payee on its side before forwarding.
func (b *Bank) RedeemChequeInterbank(correspondent string, vostro accounts.ID, req *RedeemChequeRequest) (*RedeemChequeResponse, error) {
	vAcct, err := b.led.Details(vostro)
	if err != nil {
		return nil, err
	}
	if vAcct.CertificateName != correspondent {
		return nil, fmt.Errorf("%w: vostro %s is not owned by %s", ErrDenied, vostro, correspondent)
	}
	// Payee filter "" — the correspondent vouches for the payee.
	cheque, err := b.verifiedClaim(req, "")
	if err != nil {
		return nil, err
	}
	return b.redeemCheque(cheque, &req.Claim, vostro)
}

// verifiedClaim verifies a presented cheque (payeeCert "" skips the
// payee-identity check) and its claim, returning the signed payload.
func (b *Bank) verifiedClaim(req *RedeemChequeRequest, payeeCert string) (*payment.Cheque, error) {
	sc := req.Cheque
	if _, err := payment.VerifyCheque(&sc, b.ts, payeeCert, b.now()); err != nil {
		return nil, err
	}
	if err := sc.Cheque.ValidateClaim(&req.Claim); err != nil {
		return nil, err
	}
	return &sc.Cheque, nil
}

// redeemCheque pays a verified claim into creditTo. One commit-point
// transaction on the drawer's shard re-reads the row's state, pays from
// the lock, releases the remainder and flips the row to redeemed; when
// creditTo lives on another shard the ledger lands the credit there
// before returning. A crash or timeout anywhere leaves the cheque either
// untouched or redeemed with its money on the way — re-presenting it can
// never pay twice.
func (b *Bank) redeemCheque(cheque *payment.Cheque, claim *payment.ChequeClaim, creditTo accounts.ID) (*RedeemChequeResponse, error) {
	released := cheque.Limit.MustSub(claim.Amount)
	tr, err := b.led.Transfer(cheque.DrawerAccountID, creditTo, claim.Amount, accounts.TransferOptions{
		FromLocked:    true,
		RUR:           claim.RUR,
		ReleaseLocked: released,
		InTx: func(tx *db.Tx) error {
			row, err := chequeRowTx(tx, cheque.Serial)
			if err != nil {
				return err
			}
			return putOutstandingTx(tx, row, stateRedeemed, claim.Amount)
		},
	})
	if err != nil {
		return nil, err
	}
	return &RedeemChequeResponse{TransactionID: tr.TransactionID, Paid: claim.Amount, Released: released}, nil
}

// ReleaseCheque returns an expired, unredeemed cheque's locked funds to
// the drawer. Only the drawer (or an admin) may release, and only after
// expiry — before that the payee still holds a valid guarantee. The
// unlock and the row's flip to released commit in one transaction on the
// drawer's shard; the request names only the serial, so the row is
// looked up across the shards first.
func (b *Bank) ReleaseCheque(caller string, req *ReleaseRequest) (*ReleaseResponse, error) {
	home := -1
	for i := 0; i < b.led.Shards() && home < 0; i++ {
		if _, err := b.led.ShardStore(i).Get(tableCheques, req.Serial); err == nil {
			home = i
		} else if !errors.Is(err, db.ErrNoRecord) {
			return nil, err
		}
	}
	if home < 0 {
		return nil, fmt.Errorf("%w: cheque %s", ErrUnknownSerial, req.Serial)
	}
	admin := b.IsAdmin(caller)
	mgr := b.led.ShardManager(home)
	var released currency.Amount
	err := b.led.ShardStore(home).Update(func(tx *db.Tx) error {
		row, err := chequeRowTx(tx, req.Serial)
		if err != nil {
			return err
		}
		if row.Cheque.DrawerCert != caller && !admin {
			return fmt.Errorf("%w: %s is not the drawer", ErrDenied, caller)
		}
		if err := putOutstandingTx(tx, row, stateReleased, 0); err != nil {
			return err
		}
		if b.now().Before(row.Cheque.Expires) {
			return fmt.Errorf("%w: expires %v", ErrNotExpired, row.Cheque.Expires)
		}
		released = row.Cheque.Limit
		return mgr.UnlockTx(tx, row.Cheque.DrawerAccountID, released)
	})
	if err != nil {
		return nil, err
	}
	return &ReleaseResponse{Released: released}, nil
}

// maxChainTTL bounds a GridHash chain's lifetime. Chain rows store
// instants as UnixNano, which ends in 2262; a decade keeps every expiry
// far inside that range.
const maxChainTTL = 10 * 365 * 24 * time.Hour

// RequestChain implements §5.2 Request GridHash chain: the bank generates
// the chain, signs the commitment, locks its full value together with
// the chain row and returns the seed to the consumer (pay-as-you-go,
// §3.1).
func (b *Bank) RequestChain(caller string, req *RequestChainRequest) (*RequestChainResponse, error) {
	acct, err := b.requireOwner(caller, req.AccountID)
	if err != nil {
		return nil, err
	}
	if req.PayeeCert == "" {
		return nil, errors.New("core: chain requires a payee certificate name")
	}
	ttl := req.TTL
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	if ttl > maxChainTTL {
		return nil, fmt.Errorf("core: chain TTL %v exceeds the %v maximum", ttl, maxChainTTL)
	}
	chain, err := payment.NewChain(req.AccountID, acct.CertificateName, req.PayeeCert,
		req.Length, req.PerWord, acct.Currency, b.now(), ttl)
	if err != nil {
		return nil, err
	}
	total, err := chain.Commitment.Total()
	if err != nil {
		return nil, err
	}
	signed, err := payment.IssueChain(b.id, chain.Commitment)
	if err != nil {
		return nil, err
	}
	if err := b.chains.Issue(&micropay.ChainRow{Commitment: chain.Commitment, State: micropay.StateOutstanding}, total); err != nil {
		return nil, err
	}
	return &RequestChainResponse{Chain: *signed, Seed: chain.Seed}, nil
}

// chainErr translates redemption-layer chain errors to the bank's wire
// errors.
func chainErr(serial string, err error) error {
	switch {
	case errors.Is(err, micropay.ErrUnknownChain):
		return fmt.Errorf("%w: chain %s", ErrUnknownSerial, serial)
	case errors.Is(err, micropay.ErrStaleIndex):
		return fmt.Errorf("%w: %v", ErrStaleIndex, err)
	case errors.Is(err, micropay.ErrChainState):
		return fmt.Errorf("%w: %v", ErrAlreadyRedeemed, err)
	}
	return err
}

// RedeemChain implements §5.2 Redeem GridHash chain, incrementally: a
// claim at index i pays (i − redeemedSoFar) × PerWord from the drawer's
// locked funds. GSPs may batch (redeem every N words) or redeem once at
// the end; both fall out of the same delta rule. The payout and the
// chain row advance commit in one ledger transaction (cross-shard: under
// a write-ahead pinned transaction ID), so a crash can never replay a
// paid delta.
//
// Every authorization field — drawer account, currency, expiry — is
// taken from the signature-verified payload VerifyChain returns, never
// from the request's unverified wrapper. The claim's preimage is checked
// incrementally against the last redeemed word, O(delta) hashes.
func (b *Bank) RedeemChain(caller string, req *RedeemChainRequest) (*RedeemChainResponse, error) {
	cc, err := b.verifiedChain(&req.Chain, caller)
	if err != nil {
		return nil, err
	}
	if req.Claim.Serial != cc.Serial {
		return nil, fmt.Errorf("payment: claim serial %q does not match chain %q", req.Claim.Serial, cc.Serial)
	}
	payeeAcct, err := b.led.FindByCertificate(caller, cc.Currency)
	if err != nil {
		return nil, fmt.Errorf("core: payee has no %s account: %w", cc.Currency, err)
	}
	out, err := b.chains.Redeem(cc.Serial, payeeAcct.AccountID, req.Claim.Index, req.Claim.Word, req.Claim.RUR)
	if err != nil {
		return nil, chainErr(cc.Serial, err)
	}
	return &RedeemChainResponse{TransactionID: out.TxID, Paid: out.Paid, IndexNow: out.Index}, nil
}

// verifiedChain verifies a presented chain and returns the
// signature-verified commitment payload.
func (b *Bank) verifiedChain(sc *payment.SignedChain, payeeCert string) (*payment.ChainCommitment, error) {
	_, cc, err := payment.VerifyChain(sc, b.ts, payeeCert, b.now())
	if err != nil {
		return nil, err
	}
	return cc, nil
}

// ReleaseChain returns the unredeemed remainder of an expired chain's
// lock to the drawer. The caller/state/expiry gate runs under the same
// per-serial lock as redemption, and the unlock commits atomically with
// the row's flip to released — a concurrently in-flight redemption
// either lands entirely before the release (and shrinks the remainder)
// or is refused entirely after it.
func (b *Bank) ReleaseChain(caller string, req *ReleaseRequest) (*ReleaseResponse, error) {
	out, err := b.chains.Release(req.Serial, func(row *micropay.ChainRow) error {
		if row.Commitment.DrawerCert != caller && !b.IsAdmin(caller) {
			return fmt.Errorf("%w: %s is not the drawer", ErrDenied, caller)
		}
		if row.State != micropay.StateOutstanding {
			return fmt.Errorf("%w: chain %s is %s", ErrAlreadyRedeemed, req.Serial, row.State)
		}
		if b.now().Before(row.Commitment.Expires) {
			return fmt.Errorf("%w: expires %v", ErrNotExpired, row.Commitment.Expires)
		}
		return nil
	})
	if err != nil {
		return nil, chainErr(req.Serial, err)
	}
	return &ReleaseResponse{Released: out.Paid}, nil
}

// --- Admin API (§5.2.1) ----------------------------------------------------

func (b *Bank) requireAdmin(caller string) error {
	if !b.IsAdmin(caller) {
		return fmt.Errorf("%w: %s is not an administrator", ErrDenied, caller)
	}
	return nil
}

// AdminDeposit credits an account with externally received funds.
func (b *Bank) AdminDeposit(caller string, req *AdminAmountRequest) (*ConfirmationResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	if err := b.led.Deposit(req.AccountID, req.Amount); err != nil {
		return nil, err
	}
	return &ConfirmationResponse{Confirmed: true}, nil
}

// AdminWithdraw debits an account for external payout.
func (b *Bank) AdminWithdraw(caller string, req *AdminAmountRequest) (*ConfirmationResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	if err := b.led.Withdraw(req.AccountID, req.Amount); err != nil {
		return nil, err
	}
	return &ConfirmationResponse{Confirmed: true}, nil
}

// AdminChangeCreditLimit sets an account's credit limit.
func (b *Bank) AdminChangeCreditLimit(caller string, req *AdminAmountRequest) (*ConfirmationResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	if err := b.led.ChangeCreditLimit(req.AccountID, req.Amount); err != nil {
		return nil, err
	}
	return &ConfirmationResponse{Confirmed: true}, nil
}

// AdminCancelTransfer reverses a transfer.
func (b *Bank) AdminCancelTransfer(caller string, req *AdminCancelRequest) (*ConfirmationResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	if err := b.led.CancelTransfer(req.TransactionID); err != nil {
		return nil, err
	}
	return &ConfirmationResponse{Confirmed: true}, nil
}

// AdminCloseAccount closes an account.
func (b *Bank) AdminCloseAccount(caller string, req *AdminCloseRequest) (*ConfirmationResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	if err := b.led.CloseAccount(req.AccountID, req.TransferTo); err != nil {
		return nil, err
	}
	return &ConfirmationResponse{Confirmed: true}, nil
}

// AdminListAccounts lists all accounts.
func (b *Bank) AdminListAccounts(caller string) (*AdminAccountsResponse, error) {
	if err := b.requireAdmin(caller); err != nil {
		return nil, err
	}
	accts, err := b.led.Accounts()
	if err != nil {
		return nil, err
	}
	return &AdminAccountsResponse{Accounts: accts}, nil
}
