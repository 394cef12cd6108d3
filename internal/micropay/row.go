package micropay

import (
	"encoding/json"
	"errors"
	"fmt"

	"gridbank/internal/db"
	"gridbank/internal/payment"
	"gridbank/internal/usage"

	"gridbank/internal/accounts"
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

// decodeChainRow unmarshals a chain row.
func decodeChainRow(raw []byte) (*ChainRow, error) {
	var row ChainRow
	if err := json.Unmarshal(raw, &row); err != nil {
		return nil, fmt.Errorf("micropay: corrupt chain row: %w", err)
	}
	return &row, nil
}

// encode marshals the row (marshal of plain fields cannot fail).
func (r *ChainRow) encode() []byte {
	raw, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("micropay: encoding chain row: %v", err))
	}
	return raw
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
		row, err := decodeChainRow(raw)
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
		row, derr := decodeChainRow(raw)
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
	raw := row.encode()
	return rs.led.ShardStore(rs.home(row)).Update(func(tx *db.Tx) error {
		return tx.Put(TableChains, row.Commitment.Serial, raw)
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
		ok, err := tx.Exists(TableChains, serial)
		if err != nil || !ok {
			return err
		}
		return tx.Delete(TableChains, serial)
	})
}
