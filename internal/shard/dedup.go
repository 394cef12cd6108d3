package shard

import "time"

// SweepDedup removes op_dedup markers older than cutoff on every shard,
// reporting the total removed. A marker commits in the transaction that
// moves its transfer's money, so sweeping one never disturbs a transfer
// in flight — it only ends the key's replay protection.
func (l *Ledger) SweepDedup(cutoff time.Time) (int, error) {
	total := 0
	for _, mgr := range l.mgrs {
		n, err := mgr.SweepDedup(cutoff)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
