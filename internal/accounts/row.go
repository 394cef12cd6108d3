package accounts

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gridbank/internal/currency"
	"gridbank/internal/wire"
)

// Stored row values. ACCOUNT, TRANSACTION, TRANSFER and op_dedup rows
// are bin1 values (wire.AppendRowHeader/ReadRow): a version byte, a
// flags byte, then amounts as micro-unit i64, instants as UnixNano
// (wire.AppendTime), length-prefixed strings and raw blobs. A row
// stores nothing its entry key already holds, so every decoder takes
// (key, raw). A value opening with '{' is a legacy JSON row and
// decodes forever; every write is bin1. The encoders refuse, with an
// error, what the layout cannot hold: an instant outside the UnixNano
// range, a string over 64 KiB.

// Row flags (the second byte of a bin1 value).
const (
	accountClosed = 1 << 0 // ACCOUNT: closed
	accountCredit = 1 << 1 // ACCOUNT: a non-zero credit limit follows

	transferRUR       = 1 << 0 // TRANSFER: the RUR follows
	transferCancelled = 1 << 1 // TRANSFER: Cancelled
	transferReversal  = 1 << 2 // TRANSFER: a pinned ReversalID follows
)

// txTypes numbers the TRANSACTION types in the bin1 layout.
var txTypes = []TxType{TxDeposit, TxWithdrawal, TxTransfer, TxLock, TxUnlock}

// encodeAccount is an ACCOUNT row (the account ID is the entry key's):
//
//	0xB1 flags:u8 available:i64 locked:i64 created:u64 currency:str16
//	certificate_name:str16 organization_name:str16
//	[credit_limit:i64 — accountCredit only]
func encodeAccount(a *Account) ([]byte, error) {
	var flags byte
	if a.Closed {
		flags |= accountClosed
	}
	if a.CreditLimit != 0 {
		flags |= accountCredit
	}
	var buf bytes.Buffer
	buf.Grow(64 + len(a.CertificateName) + len(a.OrganizationName))
	wire.AppendRowHeader(&buf, flags)
	wire.AppendU64(&buf, uint64(a.AvailableBalance))
	wire.AppendU64(&buf, uint64(a.LockedBalance))
	err := errors.Join(
		wire.AppendTime(&buf, a.CreatedAt),
		wire.AppendStr16(&buf, string(a.Currency)),
		wire.AppendStr16(&buf, a.CertificateName),
		wire.AppendStr16(&buf, a.OrganizationName),
	)
	if flags&accountCredit != 0 {
		wire.AppendU64(&buf, uint64(a.CreditLimit))
	}
	if err != nil {
		return nil, fmt.Errorf("accounts: encoding account %s: %w", a.AccountID, err)
	}
	return buf.Bytes(), nil
}

func decodeAccount(key string, raw []byte) (*Account, error) {
	a := &Account{}
	err := wire.ReadRow(raw, a, accountClosed|accountCredit, func(flags byte, br *wire.BinReader) error {
		a.AccountID = ID(key)
		a.AvailableBalance = currency.Amount(br.U64())
		a.LockedBalance = currency.Amount(br.U64())
		a.CreatedAt = br.Time()
		a.Currency = currency.Code(br.Str16())
		a.CertificateName, a.OrganizationName = br.Str16(), br.Str16()
		if flags&accountCredit != 0 {
			if a.CreditLimit = currency.Amount(br.U64()); a.CreditLimit == 0 && br.Err() == nil {
				return errors.New("credit limit 0 behind its flag")
			}
		}
		a.Closed = flags&accountClosed != 0
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("accounts: corrupt account record %s: %w", key, err)
	}
	return a, nil
}

// encodeTransaction is a TRANSACTION row (the ID and account are
// txKey's):
//
//	0xB1 0x00 type:u8 date:u64 amount:i64
func encodeTransaction(t *Transaction) ([]byte, error) {
	typ := slices.Index(txTypes, t.Type)
	if typ < 0 {
		return nil, fmt.Errorf("accounts: transaction %d has unknown type %q", t.TransactionID, t.Type)
	}
	var buf bytes.Buffer
	buf.Grow(19)
	wire.AppendRowHeader(&buf, 0)
	buf.WriteByte(byte(typ))
	if err := wire.AppendTime(&buf, t.Date); err != nil {
		return nil, fmt.Errorf("accounts: encoding transaction %d: %w", t.TransactionID, err)
	}
	wire.AppendU64(&buf, uint64(t.Amount))
	return buf.Bytes(), nil
}

func decodeTransaction(key string, raw []byte) (*Transaction, error) {
	t := &Transaction{}
	err := wire.ReadRow(raw, t, 0, func(_ byte, br *wire.BinReader) error {
		id, acct, ok := strings.Cut(key, "/")
		n, perr := strconv.ParseUint(id, 10, 64)
		if !ok || perr != nil || txKey(n, ID(acct)) != key {
			return errors.New("key is not <id>/<account>")
		}
		t.TransactionID, t.AccountID = n, ID(acct)
		typ := int(br.U8())
		if typ >= len(txTypes) {
			return fmt.Errorf("unknown transaction type %d", typ)
		}
		t.Type = txTypes[typ]
		t.Date = br.Time()
		t.Amount = currency.Amount(br.U64())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("accounts: corrupt transaction record %s: %w", key, err)
	}
	return t, nil
}

// encodeTransfer is a TRANSFER row (the ID is transferKey's):
//
//	0xB1 flags:u8 date:u64 amount:i64 drawer:str16 recipient:str16
//	[rur:blob32 — transferRUR only] [reversal_id:u64 — transferReversal only]
func encodeTransfer(t *Transfer) ([]byte, error) {
	var flags byte
	if len(t.ResourceUsageRecord) > 0 {
		flags |= transferRUR
	}
	if t.Cancelled {
		flags |= transferCancelled
	}
	if t.ReversalID != 0 {
		flags |= transferReversal
	}
	var buf bytes.Buffer
	buf.Grow(56 + len(t.ResourceUsageRecord))
	wire.AppendRowHeader(&buf, flags)
	err := wire.AppendTime(&buf, t.Date)
	wire.AppendU64(&buf, uint64(t.Amount))
	err = errors.Join(err,
		wire.AppendStr16(&buf, string(t.DrawerAccountID)),
		wire.AppendStr16(&buf, string(t.RecipientAccountID)),
	)
	if flags&transferRUR != 0 {
		err = errors.Join(err, wire.AppendBlob32(&buf, t.ResourceUsageRecord))
	}
	if flags&transferReversal != 0 {
		wire.AppendU64(&buf, t.ReversalID)
	}
	if err != nil {
		return nil, fmt.Errorf("accounts: encoding transfer %d: %w", t.TransactionID, err)
	}
	return buf.Bytes(), nil
}

func decodeTransfer(key string, raw []byte) (*Transfer, error) {
	t := &Transfer{}
	err := wire.ReadRow(raw, t, transferRUR|transferCancelled|transferReversal, func(flags byte, br *wire.BinReader) error {
		id, err := strconv.ParseUint(key, 10, 64)
		if err != nil || transferKey(id) != key {
			return errors.New("key is not a transaction ID")
		}
		t.TransactionID = id
		t.Date = br.Time()
		t.Amount = currency.Amount(br.U64())
		t.DrawerAccountID, t.RecipientAccountID = ID(br.Str16()), ID(br.Str16())
		if flags&transferRUR != 0 {
			if t.ResourceUsageRecord = br.Blob32(); t.ResourceUsageRecord == nil && br.Err() == nil {
				return errors.New("empty RUR behind its flag")
			}
		}
		if flags&transferReversal != 0 {
			if t.ReversalID = br.U64(); t.ReversalID == 0 && br.Err() == nil {
				return errors.New("reversal ID 0 behind its flag")
			}
		}
		t.Cancelled = flags&transferCancelled != 0
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("accounts: corrupt transfer record %s: %w", key, err)
	}
	return t, nil
}

// pinsReversal reports whether a TRANSFER row may pin a ReversalID: a
// bin1 row says so in its flags, a legacy JSON row must be decoded to
// tell.
func pinsReversal(raw []byte) bool {
	return len(raw) < 2 || raw[0] != wire.RowBin1 || raw[1]&transferReversal != 0
}

// encodeDedup is an op_dedup row (the idempotency key is the entry
// key):
//
//	0xB1 0x00 txid:u64 date:u64
func encodeDedup(mk *DedupMarker) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(18)
	wire.AppendRowHeader(&buf, 0)
	wire.AppendU64(&buf, mk.TxID)
	if err := wire.AppendTime(&buf, mk.Date); err != nil {
		return nil, fmt.Errorf("accounts: encoding dedup marker %q: %w", mk.Key, err)
	}
	return buf.Bytes(), nil
}

func decodeDedup(key string, raw []byte) (*DedupMarker, error) {
	mk := &DedupMarker{}
	err := wire.ReadRow(raw, mk, 0, func(_ byte, br *wire.BinReader) error {
		mk.Key = key
		mk.TxID = br.U64()
		mk.Date = br.Time()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("accounts: corrupt dedup marker %q: %w", key, err)
	}
	return mk, nil
}
