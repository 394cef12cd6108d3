package accounts

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
)

// Table and index names in the underlying store.
const (
	tableAccounts     = "accounts"
	tableTransactions = "transactions"
	tableTransfers    = "transfers"
	tableMeta         = "meta"

	indexByCert = "by_certificate_name"

	metaTxSeq   = "txseq"
	metaAcctSeq = "acctseq"
)

// Manager is the GB Accounts module: every balance mutation in GridBank
// flows through it, inside a single db transaction, so the ledger
// invariants (non-negative locked balance, overdraft bounded by credit
// limit, conservation of money across transfers) hold at every commit
// point.
//
// Transaction and account numbers come from in-memory atomic counters
// seeded from the store at startup (max existing ID, plus the legacy
// meta rows older journals carry). Allocating them transactionally
// would make the counter row a write hotspot every concurrent transfer
// conflicts on; atomic allocation keeps concurrent transfers on
// disjoint accounts conflict-free, at the cost of ID gaps when a
// transaction retries or rolls back — gaps are harmless, duplicates
// would not be. One Manager owns a store's ID space: construct a single
// Manager per store.
type Manager struct {
	store  *db.Store
	bank   string // two-digit bank number
	branch string // four-digit branch number
	now    func() time.Time

	txSeq   atomic.Uint64 // last allocated TransactionID
	acctSeq atomic.Uint64 // last allocated account number

	txAlloc func() uint64 // overrides txSeq when set (sharded deployments)
}

// Config configures a Manager.
type Config struct {
	// Bank and Branch number this GridBank server issues accounts under
	// (§6: branches per VO, bank numbers per payment system). Defaults
	// "01" and "0001".
	Bank   string
	Branch string
	// Now supplies timestamps; defaults to time.Now. Simulations inject a
	// virtual clock.
	Now func() time.Time
	// TxIDAlloc, when set, replaces the manager's own transaction-ID
	// counter. Sharded deployments pass one shared allocator to every
	// shard's manager so transaction IDs stay globally unique across
	// stores; the caller seeds it above every shard's LastTransactionID.
	TxIDAlloc func() uint64
}

// NewManager initializes the schema on the store and returns a manager.
func NewManager(store *db.Store, cfg Config) (*Manager, error) {
	if cfg.Bank == "" {
		cfg.Bank = "01"
	}
	if cfg.Branch == "" {
		cfg.Branch = "0001"
	}
	if len(cfg.Bank) != 2 || len(cfg.Branch) != 4 {
		return nil, fmt.Errorf("accounts: bank must be 2 digits and branch 4, got %q/%q", cfg.Bank, cfg.Branch)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	for _, t := range []string{tableAccounts, tableTransactions, tableTransfers, tableMeta, TableDedup} {
		if err := store.EnsureTable(t); err != nil {
			return nil, err
		}
	}
	err := store.CreateIndex(tableAccounts, indexByCert, func(key string, value []byte) []string {
		a, err := decodeAccount(key, value)
		if err != nil || a.Closed {
			return nil
		}
		return []string{a.CertificateName}
	})
	if err != nil && !errors.Is(err, db.ErrDupIndex) {
		return nil, err
	}
	m := &Manager{store: store, bank: cfg.Bank, branch: cfg.Branch, now: cfg.Now, txAlloc: cfg.TxIDAlloc}
	if err := m.recoverSequences(); err != nil {
		return nil, err
	}
	return m, nil
}

// nextTxID allocates a transaction ID from the shared allocator if one
// was configured, else from the manager's own counter.
func (m *Manager) nextTxID() uint64 {
	if m.txAlloc != nil {
		return m.txAlloc()
	}
	return m.txSeq.Add(1)
}

// LastTransactionID returns the highest transaction ID recovered from
// (or allocated against) this manager's store. Sharded deployments use
// it to seed the shared allocator above every shard's history.
func (m *Manager) LastTransactionID() uint64 { return m.txSeq.Load() }

// LastAccountNumber returns the highest account number recovered from
// this manager's store.
func (m *Manager) LastAccountNumber() uint64 { return m.acctSeq.Load() }

// recoverSequences seeds the ID counters from existing state: the
// highest key in each numbered table, floored by the legacy meta rows
// that seed-era journals persisted the counters in.
func (m *Manager) recoverSequences() error {
	txMax := metaFloor(m.store, metaTxSeq)
	acctMax := metaFloor(m.store, metaAcctSeq)
	err := m.store.Scan(tableTransactions, func(key string, _ []byte) bool {
		if id, _, ok := strings.Cut(key, "/"); ok {
			if n, err := strconv.ParseUint(id, 10, 64); err == nil && n > txMax {
				txMax = n
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	err = m.store.Scan(tableTransfers, func(key string, _ []byte) bool {
		if n, err := strconv.ParseUint(key, 10, 64); err == nil && n > txMax {
			txMax = n
		}
		return true
	})
	if err != nil {
		return err
	}
	err = m.store.Scan(tableAccounts, func(key string, _ []byte) bool {
		if i := strings.LastIndexByte(key, '-'); i >= 0 {
			if n, err := strconv.ParseUint(key[i+1:], 10, 64); err == nil && n > acctMax {
				acctMax = n
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	m.txSeq.Store(txMax)
	m.acctSeq.Store(acctMax)
	return nil
}

// metaFloor reads a legacy transactional counter row; 0 if absent.
func metaFloor(store *db.Store, key string) uint64 {
	raw, err := store.Get(tableMeta, key)
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Store exposes the underlying store (for snapshots and diagnostics).
func (m *Manager) Store() *db.Store { return m.store }

// BankNumber returns the manager's bank number.
func (m *Manager) BankNumber() string { return m.bank }

// BranchNumber returns the manager's branch number.
func (m *Manager) BranchNumber() string { return m.branch }

func getAccount(tx *db.Tx, id ID) (*Account, error) {
	raw, err := tx.Get(tableAccounts, string(id))
	if errors.Is(err, db.ErrNoRecord) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	return decodeAccount(string(id), raw)
}

func putAccount(tx *db.Tx, a *Account) error {
	raw, err := encodeAccount(a)
	if err != nil {
		return err
	}
	return tx.Put(tableAccounts, string(a.AccountID), raw)
}

// appendTransaction journals a TRANSACTION row under a fresh ID and
// returns that ID.
func (m *Manager) appendTransaction(tx *db.Tx, t *Transaction) (uint64, error) {
	if t.TransactionID == 0 {
		t.TransactionID = m.nextTxID()
	}
	raw, err := encodeTransaction(t)
	if err != nil {
		return 0, err
	}
	return t.TransactionID, tx.Insert(tableTransactions, txKey(t.TransactionID, t.AccountID), raw)
}

// txKey orders transactions by ID; the account suffix separates the two
// rows a transfer writes (one per side) under one TransactionID.
func txKey(id uint64, acct ID) string { return fmt.Sprintf("%020d/%s", id, acct) }

func transferKey(id uint64) string { return fmt.Sprintf("%020d", id) }

// CreateAccount implements §5.2 Create New Account: the caller has already
// authenticated the client certificate; the certificate name recorded here
// is the authenticated subject. One open account per certificate name and
// currency — the paper keys clients by Certificate Name.
func (m *Manager) CreateAccount(certName, orgName string, cur currency.Code) (*Account, error) {
	return m.createAccount(func() ID {
		return ID(fmt.Sprintf("%s-%s-%08d", m.bank, m.branch, m.acctSeq.Add(1)))
	}, certName, orgName, cur)
}

// CreateAccountWithID creates an account under a caller-chosen ID. It
// exists for sharded deployments, where the shard router allocates IDs
// from a deployment-wide counter and the ID's consistent-hash placement
// decides which store the record lives on — so the ID must be fixed
// before the owning manager is known. The per-store duplicate-identity
// check still runs; cross-shard duplicate checks are the router's job.
func (m *Manager) CreateAccountWithID(id ID, certName, orgName string, cur currency.Code) (*Account, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("%w: %s", ErrBadID, id)
	}
	return m.createAccount(func() ID { return id }, certName, orgName, cur)
}

// createAccount is the shared create path: validate, enforce the
// one-open-account-per-certificate-and-currency invariant under the
// index's phantom protection, and insert. idFor runs inside the Update
// retry loop, so allocator-backed suppliers may burn an ID per retry
// (gaps are harmless, duplicates would not be).
func (m *Manager) createAccount(idFor func() ID, certName, orgName string, cur currency.Code) (*Account, error) {
	if certName == "" {
		return nil, errors.New("accounts: empty certificate name")
	}
	if cur == "" {
		cur = currency.GridDollar
	}
	if !cur.Valid() {
		return nil, fmt.Errorf("accounts: invalid currency %q", cur)
	}
	var created *Account
	err := m.store.Update(func(tx *db.Tx) error {
		existing, err := tx.Lookup(tableAccounts, indexByCert, certName)
		if err != nil {
			return err
		}
		for _, key := range existing {
			raw, err := tx.Get(tableAccounts, key)
			if err != nil {
				return err
			}
			a, err := decodeAccount(key, raw)
			if err != nil {
				return err
			}
			if !a.Closed && a.Currency == cur {
				return fmt.Errorf("%w: %s (%s)", ErrDuplicateIdentity, certName, cur)
			}
		}
		a := &Account{
			AccountID:        idFor(),
			CertificateName:  certName,
			OrganizationName: orgName,
			Currency:         cur,
			CreatedAt:        m.now(),
		}
		raw, err := encodeAccount(a)
		if err != nil {
			return err
		}
		if err := tx.Insert(tableAccounts, string(a.AccountID), raw); err != nil {
			return err
		}
		created = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	return created, nil
}

// Details implements §5.2 Request Account Details / Check Balance.
func (m *Manager) Details(id ID) (*Account, error) {
	raw, err := m.store.Get(tableAccounts, string(id))
	if errors.Is(err, db.ErrNoRecord) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	return decodeAccount(string(id), raw)
}

// FindByCertificate returns the open account for a certificate name in
// the given currency ("" matches any currency; the first match by account
// ID order wins). This is the authorization lookup of §3.2: "the subject
// name ... is checked against the database".
func (m *Manager) FindByCertificate(certName string, cur currency.Code) (*Account, error) {
	keys, err := m.store.Lookup(tableAccounts, indexByCert, certName)
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		raw, err := m.store.Get(tableAccounts, key)
		if err != nil {
			continue
		}
		a, err := decodeAccount(key, raw)
		if err != nil {
			return nil, err
		}
		if a.Closed {
			continue
		}
		if cur == "" || a.Currency == cur {
			return a, nil
		}
	}
	return nil, fmt.Errorf("%w: certificate %s", ErrNotFound, certName)
}

// UpdateDetails implements §5.2 Update Account Details: "Only
// CertificateName and OrganizationName can be modified." Changing the
// certificate name re-keys authorization (e.g. after certificate renewal
// under a new DN), so callers must have verified the client's right to
// the account first.
func (m *Manager) UpdateDetails(id ID, certName, orgName string) (*Account, error) {
	if certName == "" {
		return nil, errors.New("accounts: empty certificate name")
	}
	var updated *Account
	err := m.store.Update(func(tx *db.Tx) error {
		a, err := getAccount(tx, id)
		if err != nil {
			return err
		}
		if a.Closed {
			return fmt.Errorf("%w: %s", ErrClosed, id)
		}
		// The new name must not collide with a different client's account
		// in the same currency.
		keys, err := tx.Lookup(tableAccounts, indexByCert, certName)
		if err != nil {
			return err
		}
		for _, key := range keys {
			if key == string(id) {
				continue
			}
			raw, err := tx.Get(tableAccounts, key)
			if err != nil {
				return err
			}
			other, err := decodeAccount(key, raw)
			if err != nil {
				return err
			}
			if !other.Closed && other.Currency == a.Currency {
				return fmt.Errorf("%w: %s", ErrDuplicateIdentity, certName)
			}
		}
		a.CertificateName = certName
		a.OrganizationName = orgName
		updated = a
		return putAccount(tx, a)
	})
	if err != nil {
		return nil, err
	}
	return updated, nil
}

// CheckFunds implements §5.2 Perform Funds Availability Check: "the amount
// is transferred into locked balance for guarantee". This is the §3.4
// payment guarantee — GridCheque issuance locks the reserved amount so
// concurrent spending cannot overdraw past the credit limit.
func (m *Manager) CheckFunds(id ID, amount currency.Amount) error {
	return m.store.Update(func(tx *db.Tx) error { return m.LockTx(tx, id, amount) })
}

// Unlock releases previously locked funds back to the available balance
// (e.g. a cheque expired unredeemed, or was redeemed below its reserved
// amount).
func (m *Manager) Unlock(id ID, amount currency.Amount) error {
	return m.store.Update(func(tx *db.Tx) error { return m.UnlockTx(tx, id, amount) })
}

// TransferOptions modify Transfer behaviour.
type TransferOptions struct {
	// FromLocked pays out of the drawer's locked balance (cheque
	// redemption path, §3.4) instead of the available balance.
	FromLocked bool
	// RUR is the Resource Usage Record evidence blob stored with the
	// TRANSFER record (§5.1).
	RUR []byte
	// DedupKey, when set, makes the transfer idempotent: an op_dedup
	// marker is written in the same db transaction as the transfer, and
	// a repeat call with the same key returns the recorded transfer
	// instead of moving money again.
	DedupKey string
	// ReleaseLocked returns this much of the drawer's locked balance to
	// its available balance in the same db transaction that debits the
	// drawer, with its own Unlock TRANSACTION row: the unspent remainder
	// of an instrument's lock, released exactly when the instrument pays.
	ReleaseLocked currency.Amount
	// InTx, when set, runs inside the db transaction that debits the
	// drawer (on the drawer's store), before any ledger row is staged;
	// an error aborts the whole transfer. Instrument registries flip
	// their row here, so "paid" and "marked paid" are one commit. It may
	// run more than once (OCC retry) and must depend only on tx.
	InTx func(tx *db.Tx) error
}

// Transfer atomically moves amount from drawer to recipient, writing the
// §5.1 TRANSFER record plus a Transfer-typed TRANSACTION row on each side
// (negative on the drawer, positive on the recipient). It is the §5.2
// Request Direct Transfer operation and the settlement step of every
// payment protocol.
func (m *Manager) Transfer(drawer, recipient ID, amount currency.Amount, opts TransferOptions) (*Transfer, error) {
	if !amount.IsPositive() {
		return nil, ErrBadAmount
	}
	if drawer == recipient {
		return nil, errors.New("accounts: cannot transfer to self")
	}
	var rec *Transfer
	err := m.store.Update(func(tx *db.Tx) error {
		rec = nil
		if opts.DedupKey != "" {
			// Retry of a completed transfer: replay the recorded
			// outcome. Checked inside the transaction, so a concurrent
			// first execution either commits before this read (replay)
			// or collides on the marker insert (OCC retry, then replay).
			prior, err := m.GetDedupTx(tx, opts.DedupKey)
			if err != nil {
				return err
			}
			if prior != nil {
				rec, err = m.GetTransferTx(tx, prior.TxID)
				if err != nil {
					return fmt.Errorf("accounts: dedup marker %q names missing transfer %d: %w", opts.DedupKey, prior.TxID, err)
				}
				return nil
			}
		}
		to, err := getAccount(tx, recipient)
		if err != nil {
			return err
		}
		if to.Closed {
			return fmt.Errorf("%w: %s", ErrClosed, recipient)
		}
		out := &Transfer{
			Date:                m.now(),
			DrawerAccountID:     drawer,
			Amount:              amount,
			RecipientAccountID:  recipient,
			ResourceUsageRecord: opts.RUR,
		}
		if err := m.DebitTx(tx, out, to.Currency, opts); err != nil {
			return err
		}
		to.AvailableBalance = to.AvailableBalance.MustAdd(amount)
		if err := putAccount(tx, to); err != nil {
			return err
		}
		if _, err := m.appendTransaction(tx, &Transaction{TransactionID: out.TransactionID, AccountID: recipient, Type: TxTransfer, Date: out.Date, Amount: amount}); err != nil {
			return err
		}
		rec = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Statement implements §5.2 Request Account Statement: the ACCOUNT record
// plus TRANSACTION and TRANSFER records between start and end inclusive.
func (m *Manager) Statement(id ID, start, end time.Time) (*Statement, error) {
	acct, err := m.Details(id)
	if err != nil {
		return nil, err
	}
	st := &Statement{Account: *acct, Start: start, End: end}
	// A row that fails to decode fails the statement: derr is checked
	// after each Scan, whose own nil would otherwise mask it.
	var derr error
	suffix := "/" + string(id)
	err = m.store.Scan(tableTransactions, func(key string, value []byte) bool {
		if !strings.HasSuffix(key, suffix) {
			return true // another account's row: txKey ends in its account
		}
		var t *Transaction
		if t, derr = decodeTransaction(key, value); derr != nil {
			return false
		}
		if t.AccountID == id && !t.Date.Before(start) && !t.Date.After(end) {
			st.Transactions = append(st.Transactions, *t)
		}
		return true
	})
	if err = errors.Join(err, derr); err != nil {
		return nil, err
	}
	err = m.store.Scan(tableTransfers, func(key string, value []byte) bool {
		var tr *Transfer
		if tr, derr = decodeTransfer(key, value); derr != nil {
			return false
		}
		if (tr.DrawerAccountID == id || tr.RecipientAccountID == id) && !tr.Date.Before(start) && !tr.Date.After(end) {
			st.Transfers = append(st.Transfers, *tr)
		}
		return true
	})
	if err = errors.Join(err, derr); err != nil {
		return nil, err
	}
	return st, nil
}

// GetTransfer returns a transfer by transaction ID.
func (m *Manager) GetTransfer(txID uint64) (*Transfer, error) {
	raw, err := m.store.Get(tableTransfers, transferKey(txID))
	if errors.Is(err, db.ErrNoRecord) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchTransfer, txID)
	}
	if err != nil {
		return nil, err
	}
	return decodeTransfer(transferKey(txID), raw)
}

// TotalBalance sums available+locked over all open accounts — the
// conservation check used by tests and the co-operative economy
// experiments (transfers never create or destroy money; only
// deposits/withdrawals change this value).
func (m *Manager) TotalBalance() (currency.Amount, error) {
	var total currency.Amount
	var scanErr error
	err := m.store.Scan(tableAccounts, func(key string, value []byte) bool {
		a, err := decodeAccount(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		if a.Closed {
			return true
		}
		total = total.MustAdd(a.AvailableBalance).MustAdd(a.LockedBalance)
		return true
	})
	if err != nil {
		return 0, err
	}
	if scanErr != nil {
		return 0, scanErr
	}
	return total, nil
}

// Accounts lists every account (open and closed), in ID order.
func (m *Manager) Accounts() ([]Account, error) {
	var out []Account
	var scanErr error
	err := m.store.Scan(tableAccounts, func(key string, value []byte) bool {
		a, err := decodeAccount(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, *a)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, scanErr
}
