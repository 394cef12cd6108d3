package micropay

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gridbank/internal/accounts"
	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/usage"
	"gridbank/internal/wire"
)

// TableChains is the chain registry table. Rows for chains issued since
// the one-transaction redemption fix live on the drawer's shard store —
// the same store as the drawer's ACCOUNT row — so the row advance and
// the locked-balance debit commit atomically. Rows issued before the
// fix sit on the metadata store (shard 0); lookups scan every shard and
// redemption migrates such a row home on its next state change.
const TableChains = "chains"

// Chain row states (shared with the bank's cheque registry values).
const (
	StateOutstanding = "outstanding"
	StateRedeemed    = "redeemed"
	StateReleased    = "released"
)

// ChainRow is the bank's durable record of one issued GridHash chain:
// the signed commitment, its lifecycle state, and the redemption
// high-water mark. RedeemedWord caches the chain word at RedeemedIndex
// so the next claim verifies incrementally — H^(delta)(claim) must
// equal it — in O(delta) hashes instead of O(index) back to the root.
//
// The Pin* fields are the write-ahead intent of a cross-shard
// redemption: the transaction ID, target index, word, payee and
// evidence are pinned in the row (one transaction on the drawer's
// shard) before the 2PC transfer runs, so a crash at any point
// re-drives the same transfer instead of minting a new one. A row with
// a pin is finished — transfer resolved, row advanced, pin cleared —
// before any new redemption or release proceeds.
//
// The json tags read legacy rows only; rows are written in bin1
// (encode).
type ChainRow struct {
	Commitment    payment.ChainCommitment `json:"commitment"`
	State         string                  `json:"state"`
	RedeemedIndex int                     `json:"redeemed_index"`
	RedeemedWord  []byte                  `json:"redeemed_word,omitempty"`

	PinTxID  uint64      `json:"pin_txid,omitempty"`
	PinIndex int         `json:"pin_index,omitempty"`
	PinWord  []byte      `json:"pin_word,omitempty"`
	PinPayee accounts.ID `json:"pin_payee,omitempty"`
	PinRUR   []byte      `json:"pin_rur,omitempty"`
}

// Row flags (the second byte of a wire.RowBin1 value).
const (
	spoolParked = 1 << 0 // spool row parked (state failed): the reason follows
	chainPinned = 1 << 0 // chain row pinned: the Pin* fields follow
)

// chainStates numbers the row states in the bin1 layout.
var chainStates = []string{StateOutstanding, StateRedeemed, StateReleased}

// encode is the row's bin1 value (the serial is the entry key's):
//
//	0xB1 flags:u8 state:u8 length:u64 per_word:u64 issued:u64 expires:u64
//	redeemed_index:u64 drawer_account:str16 drawer_cert:str16
//	payee_cert:str16 currency:str16 root:blob32 redeemed_word:blob32
//	[pin_txid:u64 pin_index:u64 pin_payee:str16 pin_word:blob32
//	 pin_rur:blob32 — pinned only]
//
// An instant outside the UnixNano range is refused (wire.AppendTime).
func (r *ChainRow) encode() ([]byte, error) {
	state := slices.Index(chainStates, r.State)
	if state < 0 {
		return nil, fmt.Errorf("micropay: chain %s has unknown state %q", r.Commitment.Serial, r.State)
	}
	var flags byte
	if r.PinTxID != 0 {
		flags |= chainPinned
	}
	cc := &r.Commitment
	var buf bytes.Buffer
	wire.AppendRowHeader(&buf, flags)
	buf.WriteByte(byte(state))
	wire.AppendU64(&buf, uint64(cc.Length))
	wire.AppendU64(&buf, uint64(cc.PerWord))
	err := errors.Join(
		wire.AppendTime(&buf, cc.IssuedAt),
		wire.AppendTime(&buf, cc.Expires),
	)
	wire.AppendU64(&buf, uint64(r.RedeemedIndex))
	err = errors.Join(err,
		wire.AppendStr16(&buf, string(cc.DrawerAccountID)),
		wire.AppendStr16(&buf, cc.DrawerCert),
		wire.AppendStr16(&buf, cc.PayeeCert),
		wire.AppendStr16(&buf, string(cc.Currency)),
		wire.AppendBlob32(&buf, cc.Root),
		wire.AppendBlob32(&buf, r.RedeemedWord),
	)
	if flags&chainPinned != 0 {
		wire.AppendU64(&buf, r.PinTxID)
		wire.AppendU64(&buf, uint64(r.PinIndex))
		err = errors.Join(err,
			wire.AppendStr16(&buf, string(r.PinPayee)),
			wire.AppendBlob32(&buf, r.PinWord),
			wire.AppendBlob32(&buf, r.PinRUR),
		)
	}
	if err != nil {
		return nil, fmt.Errorf("micropay: encoding chain %s: %w", r.Commitment.Serial, err)
	}
	return buf.Bytes(), nil
}

// decodeChainRow reads the chain row stored under serial, bin1 or
// legacy JSON.
func decodeChainRow(serial string, raw []byte) (*ChainRow, error) {
	row := &ChainRow{}
	err := wire.ReadRow(raw, row, chainPinned, func(flags byte, br *wire.BinReader) error {
		state := int(br.U8())
		if state >= len(chainStates) {
			return fmt.Errorf("unknown chain state %d", state)
		}
		row.State = chainStates[state]
		cc := &row.Commitment
		cc.Length = int(int64(br.U64()))
		cc.PerWord = currency.Amount(br.U64())
		cc.IssuedAt, cc.Expires = br.Time(), br.Time()
		row.RedeemedIndex = int(int64(br.U64()))
		cc.DrawerAccountID, cc.DrawerCert, cc.PayeeCert = accounts.ID(br.Str16()), br.Str16(), br.Str16()
		cc.Currency = currency.Code(br.Str16())
		cc.Root, row.RedeemedWord = br.Blob32(), br.Blob32()
		if flags&chainPinned != 0 {
			if row.PinTxID = br.U64(); row.PinTxID == 0 && br.Err() == nil {
				return errors.New("pinned chain row with transaction ID 0")
			}
			row.PinIndex = int(int64(br.U64()))
			row.PinPayee = accounts.ID(br.Str16())
			row.PinWord, row.PinRUR = br.Blob32(), br.Blob32()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("micropay: corrupt chain row %s: %w", serial, err)
	}
	row.Commitment.Serial = serial
	return row, nil
}

// encodeSpoolRow is a spool row's bin1 value (settle.Config.Encode);
// the serial and index are the entry key's:
//
//	0xB1 flags:u8 claims:u32 enqueued:u64 drawer:str16 payee:str16
//	word:blob32 rur:blob32 [reason:str16 — parked only]
func encodeSpoolRow(r *spoolRow) ([]byte, error) {
	var flags byte
	if r.Parked() {
		flags |= spoolParked
	}
	var buf bytes.Buffer
	wire.AppendRowHeader(&buf, flags)
	wire.AppendU32(&buf, uint32(r.Claims))
	err := errors.Join(
		wire.AppendTime(&buf, r.Enqueued),
		wire.AppendStr16(&buf, string(r.Drawer)),
		wire.AppendStr16(&buf, string(r.Payee)),
		wire.AppendBlob32(&buf, r.Word),
		wire.AppendBlob32(&buf, r.RUR),
	)
	if flags&spoolParked != 0 {
		err = errors.Join(err, wire.AppendStr16(&buf, r.Reason))
	}
	if err != nil {
		return nil, fmt.Errorf("micropay: encoding spool row %s: %w", r.Key, err)
	}
	return buf.Bytes(), nil
}

// decodeSpoolRow reads the spool row stored under key, bin1 or legacy
// JSON (settle.Config.Decode). Serial and index always come from the
// key.
func decodeSpoolRow(key string, raw []byte) (*spoolRow, error) {
	i := strings.LastIndexByte(key, '/')
	index, err := strconv.Atoi(key[i+1:])
	if i < 0 || err != nil || spoolKey(key[:i], index) != key {
		return nil, fmt.Errorf("spool key %q is not <serial>/<index>", key)
	}
	row := &spoolRow{State: statePending}
	err = wire.ReadRow(raw, row, spoolParked, func(flags byte, br *wire.BinReader) error {
		row.Claims = int(br.U32())
		row.Enqueued = br.Time()
		row.Drawer, row.Payee = accounts.ID(br.Str16()), accounts.ID(br.Str16())
		row.Word, row.RUR = br.Blob32(), br.Blob32()
		if flags&spoolParked != 0 {
			row.Park(br.Str16())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	row.Key, row.Serial, row.Index = key, key[:i], index
	return row, nil
}

// verifyWordAfter checks a claimed word against an anchor: the chain
// word cached at index from, or the commitment root at index zero. An
// anchor advanced before words were cached has an index but no word;
// it verifies the slow way (hashes back to the root) exactly once — the
// next advance caches the word.
func verifyWordAfter(cc *payment.ChainCommitment, from int, anchor []byte, target int, word []byte) error {
	if from > 0 && len(anchor) == 0 {
		return payment.VerifyWord(cc, target, word)
	}
	return payment.VerifyWordAfter(cc, from, anchor, target, word)
}

// rows locates and moves chain rows across shard stores.
type rows struct {
	led usage.Ledger
}

// home is the shard that owns a chain's row: the drawer's shard.
func (rs rows) home(row *ChainRow) int {
	return rs.led.ShardFor(row.Commitment.DrawerAccountID)
}

// get finds a chain row, preferring the copy on the drawer's home
// shard. A legacy row (pre-fix, metadata store) or a stray copy left by
// an interrupted migration is found by scanning every shard store; when
// both a home and a stray copy exist the home copy is authoritative —
// migration writes home first and deletes the stray second.
func (rs rows) get(serial string) (*ChainRow, int, error) {
	var found *ChainRow
	foundAt := -1
	for i := 0; i < rs.led.Shards(); i++ {
		raw, err := rs.led.ShardStore(i).Get(TableChains, serial)
		if errors.Is(err, db.ErrNoRecord) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		row, err := decodeChainRow(serial, raw)
		if err != nil {
			return nil, 0, err
		}
		if home := rs.home(row); home == i {
			return row, i, nil
		}
		if found == nil {
			found, foundAt = row, i
		}
	}
	if found == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownChain, serial)
	}
	// No home copy: check it directly in case the scan order visited
	// the stray store first while a migration was writing home.
	home := rs.home(found)
	if raw, err := rs.led.ShardStore(home).Get(TableChains, serial); err == nil {
		row, derr := decodeChainRow(serial, raw)
		if derr != nil {
			return nil, 0, derr
		}
		return row, home, nil
	} else if !errors.Is(err, db.ErrNoRecord) {
		return nil, 0, err
	}
	return found, foundAt, nil
}

// put writes the row to its home shard store in one transaction.
func (rs rows) put(row *ChainRow) error {
	return rs.led.ShardStore(rs.home(row)).Update(func(tx *db.Tx) error {
		return putChainRow(tx, row)
	})
}

// putChainRow writes a chain row inside a transaction on its home store.
func putChainRow(tx *db.Tx, row *ChainRow) error {
	raw, err := row.encode()
	if err != nil {
		return err
	}
	return tx.Put(TableChains, row.Commitment.Serial, raw)
}

// dropStray removes a legacy/stray copy after a successful home write.
// Best effort: a surviving stray is shadowed by the home copy on every
// future lookup, never trusted over it.
func (rs rows) dropStray(serial string, at, home int) {
	if at == home {
		return
	}
	_ = rs.led.ShardStore(at).Update(func(tx *db.Tx) error {
		ok, err := tx.Exists(TableChains, serial)
		if err != nil || !ok {
			return err
		}
		return tx.Delete(TableChains, serial)
	})
}
