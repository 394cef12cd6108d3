package accounts

import (
	"errors"
	"time"

	"gridbank/internal/db"
)

// Idempotency markers (op_dedup).
//
// A mutating operation that may be retried after an ambiguous failure
// carries a client-generated idempotency key. The first execution
// writes a DedupMarker row in the SAME db transaction as the mutation
// it names — the usage pipeline's usage_settled discipline applied to
// the client API — so "the money moved" and "the key is spent" are one
// atomic fact. A retry finds the marker and replays the recorded
// outcome instead of moving money again. Markers are garbage-collected
// by a TTL sweep: a key is only protected against replay for the TTL,
// which bounds the table instead of growing it forever.

// TableDedup holds one row per spent idempotency key.
const TableDedup = "op_dedup"

// DedupMarker records that the mutation identified by Key executed as
// transaction TxID at Date. The json tags read legacy rows only; rows
// are written in bin1 (encodeDedup).
type DedupMarker struct {
	Key  string    `json:"key"`
	TxID uint64    `json:"txid"`
	Date time.Time `json:"date"`
}

// GetDedupTx reads the marker for key inside tx; (nil, nil) when the
// key is unspent.
func (m *Manager) GetDedupTx(tx *db.Tx, key string) (*DedupMarker, error) {
	raw, err := tx.Get(TableDedup, key)
	if errors.Is(err, db.ErrNoRecord) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeDedup(key, raw)
}

// GetDedup reads the marker for key outside any transaction; (nil, nil)
// when the key is unspent.
func (m *Manager) GetDedup(key string) (*DedupMarker, error) {
	raw, err := m.store.Get(TableDedup, key)
	if errors.Is(err, db.ErrNoRecord) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeDedup(key, raw)
}

// PutDedupTx spends mk.Key inside tx. Insert (not Put): two racing
// executions of the same key must collide here, so exactly one commits.
func (m *Manager) PutDedupTx(tx *db.Tx, mk *DedupMarker) error {
	raw, err := encodeDedup(mk)
	if err != nil {
		return err
	}
	return tx.Insert(TableDedup, mk.Key, raw)
}

// MaxDedupTxID scans the dedup markers for the highest pinned
// transaction ID. Older binaries durably pinned a cross-shard keyed
// transfer's allocated ID in its marker before moving any money, so
// after their crash the ID may exist nowhere else — the sharded ledger
// folds this into its transaction-ID seeding exactly as it does
// MaxReversalID.
func (m *Manager) MaxDedupTxID() (uint64, error) {
	var maxID uint64
	var scanErr error
	err := m.store.Scan(TableDedup, func(key string, value []byte) bool {
		mk, err := decodeDedup(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		if mk.TxID > maxID {
			maxID = mk.TxID
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return maxID, scanErr
}

// SweepDedup deletes markers dated strictly before cutoff and reports
// how many were removed. After a key's marker is swept, replaying that
// key executes as a fresh mutation — the TTL is the replay-protection
// window, and callers must not retry older requests.
func (m *Manager) SweepDedup(cutoff time.Time) (int, error) {
	var stale []string
	var scanErr error
	err := m.store.Scan(TableDedup, func(key string, value []byte) bool {
		mk, err := decodeDedup(key, value)
		if err != nil {
			scanErr = err
			return false
		}
		if mk.Date.Before(cutoff) {
			stale = append(stale, key)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if scanErr != nil {
		return 0, scanErr
	}
	if len(stale) == 0 {
		return 0, nil
	}
	err = m.store.Update(func(tx *db.Tx) error {
		for _, key := range stale {
			if err := tx.Delete(TableDedup, key); err != nil && !errors.Is(err, db.ErrNoRecord) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(stale), nil
}
