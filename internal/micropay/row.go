package micropay

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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

// TableChainHeads holds each chain's head row, next to its commitment
// row on the same store and under the same key: what every redemption,
// pin, advance and release rewrites (ChainRow.encodeHead), so the signed
// commitment is written once, at issue.
const TableChainHeads = "chain_heads"

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
// On disk a chain is two rows: the commitment row (encode), written at
// issue, and the head row (encodeHead) holding State onwards, rewritten
// by every state change. Reads overlay the head on the commitment row; a
// combined row written before the split, with no head, is its own head.
// The json tags read legacy rows only; rows are written in bin1.
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
	spoolChain  = 1 << 1 // per-chain spool row: keyed by serial, holding only the claim
	chainPinned = 1 << 0 // chain or head row pinned: the Pin* fields follow
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

// encodeHead is the row's head value: what a state change rewrites (the
// serial is the entry key's, the commitment the commitment row's):
//
//	0xB1 flags:u8 state:u8 redeemed_index:uvarint redeemed_word:var
//	[pin_txid:uvarint pin_index:uvarint pin_payee:var pin_word:var
//	 pin_rur:var — pinned only]
func (r *ChainRow) encodeHead() ([]byte, error) {
	state := slices.Index(chainStates, r.State)
	if state < 0 {
		return nil, fmt.Errorf("micropay: chain %s has unknown state %q", r.Commitment.Serial, r.State)
	}
	var flags byte
	if r.PinTxID != 0 {
		flags |= chainPinned
	}
	var buf bytes.Buffer
	wire.AppendRowHeader(&buf, flags)
	buf.WriteByte(byte(state))
	wire.AppendUvarint(&buf, uint64(r.RedeemedIndex))
	wire.AppendVarBytes(&buf, r.RedeemedWord)
	if flags&chainPinned != 0 {
		wire.AppendUvarint(&buf, r.PinTxID)
		wire.AppendUvarint(&buf, uint64(r.PinIndex))
		wire.AppendVarStr(&buf, string(r.PinPayee))
		wire.AppendVarBytes(&buf, r.PinWord)
		wire.AppendVarBytes(&buf, r.PinRUR)
	}
	return buf.Bytes(), nil
}

// readHead overlays the head value stored under serial on the row: State
// and everything after it in ChainRow come from the head alone.
func (r *ChainRow) readHead(serial string, raw []byte) error {
	err := wire.ReadRow(raw, nil, chainPinned, func(flags byte, br *wire.BinReader) error {
		state := int(br.U8())
		if state >= len(chainStates) {
			return fmt.Errorf("unknown chain state %d", state)
		}
		r.State, r.RedeemedIndex, r.RedeemedWord = chainStates[state], int(br.Uvarint()), br.VarBytes()
		r.PinTxID, r.PinIndex, r.PinPayee, r.PinWord, r.PinRUR = 0, 0, "", nil, nil
		if flags&chainPinned != 0 {
			if r.PinTxID = br.Uvarint(); r.PinTxID == 0 && br.Err() == nil {
				return errors.New("pinned head with transaction ID 0")
			}
			r.PinIndex, r.PinPayee = int(br.Uvarint()), accounts.ID(br.VarStr())
			r.PinWord, r.PinRUR = br.VarBytes(), br.VarBytes()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("micropay: corrupt chain head %s: %w", serial, err)
	}
	return nil
}

// encodeSpoolRow is a spool row's bin1 value (settle.Config.Encode). A
// per-chain row, keyed by its serial, holds only the claim — the parties
// come from the chain commitment:
//
//	0xB1 flags:u8 index:uvarint claims:uvarint enqueued:u64 word:var
//	rur:var [reason:var — parked only]
//
// A row under a legacy "<serial>/<index>" key is re-parked in the layout
// it was written in, the parties resolved at its intake included:
//
//	0xB1 flags:u8 claims:u32 enqueued:u64 drawer:str16 payee:str16
//	word:blob32 rur:blob32 [reason:str16 — parked only]
func encodeSpoolRow(r *spoolRow) ([]byte, error) {
	var flags byte
	if r.Parked() {
		flags |= spoolParked
	}
	var buf bytes.Buffer
	if r.Key == r.Serial {
		wire.AppendRowHeader(&buf, flags|spoolChain)
		wire.AppendUvarint(&buf, uint64(r.Index))
		wire.AppendUvarint(&buf, uint64(r.Claims))
		err := wire.AppendTime(&buf, r.Enqueued)
		wire.AppendVarBytes(&buf, r.Word)
		wire.AppendVarBytes(&buf, r.RUR)
		if flags&spoolParked != 0 {
			wire.AppendVarStr(&buf, r.Reason)
		}
		if err != nil {
			return nil, fmt.Errorf("micropay: encoding spool row %s: %w", r.Key, err)
		}
		return buf.Bytes(), nil
	}
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

// decodeSpoolRow reads the spool row stored under key (settle.Config.
// Decode): a per-chain row, whose key is the serial, or a legacy bin1 or
// JSON row, whose serial and index come from its "<serial>/<index>" key.
func decodeSpoolRow(key string, raw []byte) (*spoolRow, error) {
	row := &spoolRow{State: statePending}
	perChain := false
	err := wire.ReadRow(raw, row, spoolParked|spoolChain, func(flags byte, br *wire.BinReader) error {
		if perChain = flags&spoolChain != 0; perChain {
			index, claims := br.Uvarint(), br.Uvarint()
			if br.Err() == nil && (index < 1 || index > payment.MaxChainLength || claims < 1 || claims > math.MaxInt32) {
				return fmt.Errorf("per-chain row claims %d at index %d", claims, index)
			}
			row.Index, row.Claims = int(index), int(claims)
			row.Enqueued = br.Time()
			row.Word, row.RUR = br.VarBytes(), br.VarBytes()
			if flags&spoolParked != 0 {
				row.Park(br.VarStr())
			}
			return nil
		}
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
	if perChain {
		row.Key, row.Serial = key, key
		return row, nil
	}
	i := strings.LastIndexByte(key, '/')
	index, err := strconv.Atoi(key[i+1:])
	if i < 0 || err != nil || legacySpoolKey(key[:i], index) != key {
		return nil, fmt.Errorf("spool key %q is not <serial>/<index>", key)
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

// getter reads one entry: a store, or a transaction on one.
type getter interface {
	Get(table, key string) ([]byte, error)
}

// readChain reads a chain from one store: its commitment row overlaid by
// its head row, if any. A nil row means the store holds no commitment.
func readChain(g getter, serial string) (*ChainRow, error) {
	raw, err := g.Get(TableChains, serial)
	if errors.Is(err, db.ErrNoRecord) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	row, err := decodeChainRow(serial, raw)
	if err != nil {
		return nil, err
	}
	switch raw, err := g.Get(TableChainHeads, serial); {
	case err == nil:
		if err := row.readHead(serial, raw); err != nil {
			return nil, err
		}
	case !errors.Is(err, db.ErrNoRecord):
		return nil, err
	}
	return row, nil
}

// readChainTx reads the chain inside a transaction on its home store,
// falling back to row — read where the chain still lives — when the home
// store holds no commitment yet.
func readChainTx(tx *db.Tx, row *ChainRow) (*ChainRow, error) {
	cur, err := readChain(tx, row.Commitment.Serial)
	if cur == nil && err == nil {
		cur = row
	}
	return cur, err
}

// putHead writes the row's head inside a transaction on its home store
// and, when that store holds no commitment yet (the chain still lives at
// a legacy or stray location), the commitment with it: migration moves
// both in the transaction that changes the chain's state.
func putHead(tx *db.Tx, row *ChainRow) error {
	serial := row.Commitment.Serial
	homed, err := tx.Exists(TableChains, serial)
	if err != nil {
		return err
	}
	if !homed {
		raw, err := row.encode()
		if err != nil {
			return err
		}
		if err := tx.Put(TableChains, serial, raw); err != nil {
			return err
		}
	}
	raw, err := row.encodeHead()
	if err != nil {
		return err
	}
	return tx.Put(TableChainHeads, serial, raw)
}

// deleteChain removes a chain's rows from one store, whichever exist.
func deleteChain(tx *db.Tx, serial string) error {
	for _, table := range []string{TableChains, TableChainHeads} {
		ok, err := tx.Exists(table, serial)
		if err != nil {
			return err
		}
		if ok {
			if err := tx.Delete(table, serial); err != nil {
				return err
			}
		}
	}
	return nil
}

// rows locates and moves chain rows across shard stores.
type rows struct {
	led usage.Ledger
}

// home is the shard that owns a chain's row: the drawer's shard.
func (rs rows) home(row *ChainRow) int {
	return rs.led.ShardFor(row.Commitment.DrawerAccountID)
}

// get finds a chain, preferring the copy on the drawer's home shard. A
// legacy row (pre-fix, metadata store) or a stray copy left by an
// interrupted migration is found by scanning every shard store; when
// both a home and a stray copy exist the home copy is authoritative —
// migration writes home first and deletes the stray second.
func (rs rows) get(serial string) (*ChainRow, int, error) {
	var found *ChainRow
	foundAt := -1
	for i := 0; i < rs.led.Shards(); i++ {
		row, err := readChain(rs.led.ShardStore(i), serial)
		if err != nil {
			return nil, 0, err
		}
		if row == nil {
			continue
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
	row, err := readChain(rs.led.ShardStore(home), serial)
	switch {
	case err != nil:
		return nil, 0, err
	case row != nil:
		return row, home, nil
	}
	return found, foundAt, nil
}

// put writes the row whole to its home shard store, as a commitment row
// with no head (Redeemer.Put).
func (rs rows) put(row *ChainRow) error {
	raw, err := row.encode()
	if err != nil {
		return err
	}
	return rs.led.ShardStore(rs.home(row)).Update(func(tx *db.Tx) error {
		if err := deleteChain(tx, row.Commitment.Serial); err != nil {
			return err
		}
		return tx.Put(TableChains, row.Commitment.Serial, raw)
	})
}

// putHead writes the row's head (and, migrating, its commitment) to its
// home shard store in one transaction.
func (rs rows) putHead(row *ChainRow) error {
	return rs.led.ShardStore(rs.home(row)).Update(func(tx *db.Tx) error {
		return putHead(tx, row)
	})
}

// dropStray removes a legacy/stray copy after a successful home write.
// Best effort: a surviving stray is shadowed by the home copy on every
// future lookup, never trusted over it.
func (rs rows) dropStray(serial string, at, home int) {
	if at == home {
		return
	}
	_ = rs.led.ShardStore(at).Update(func(tx *db.Tx) error {
		return deleteChain(tx, serial)
	})
}
