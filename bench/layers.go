package main

import (
	"gridbank/internal/obs"
)

// Per-layer numbers read from the daemon itself: the deltas of its
// Metrics.Snapshot counters and histograms between the start of the
// solo phase and the end of the drain.

// histDelta is what a histogram recorded between two snapshots.
type histDelta struct {
	count, sum int64
	buckets    []obs.HistogramBucket // per-bucket (not cumulative) counts, ascending Le
}

func findHist(s *obs.Snapshot, name string) obs.HistogramStat {
	for _, h := range s.Hists {
		if h.Name == name {
			return h
		}
	}
	return obs.HistogramStat{Name: name}
}

func findCounter(s *obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// perBucket turns a snapshot's cumulative non-empty buckets into
// per-bucket counts keyed by upper bound.
func perBucket(h obs.HistogramStat) map[int64]int64 {
	out := make(map[int64]int64, len(h.Buckets))
	var prev int64
	for _, b := range h.Buckets {
		out[b.Le] = b.Count - prev
		prev = b.Count
	}
	return out
}

func deltaOf(before, after *obs.Snapshot, name string) histDelta {
	b, a := findHist(before, name), findHist(after, name)
	d := histDelta{count: a.Count - b.Count, sum: a.Sum - b.Sum}
	was := perBucket(b)
	var prev int64
	for _, bk := range a.Buckets { // ascending Le
		n := bk.Count - prev
		prev = bk.Count
		if n -= was[bk.Le]; n > 0 {
			d.buckets = append(d.buckets, obs.HistogramBucket{Le: bk.Le, Count: n})
		}
	}
	return d
}

// p50 estimates the median by linear interpolation inside the
// power-of-two bucket the middle observation fell in (the estimator
// obs.Histogram itself uses). 0 when nothing was recorded.
func (d histDelta) p50() float64 {
	if d.count <= 0 {
		return 0
	}
	target := (d.count + 1) / 2
	var cum int64
	for _, b := range d.buckets {
		if cum+b.Count >= target {
			lo := float64(0)
			if b.Le > 0 {
				lo = float64((b.Le + 1) / 2) // bucket (2^(i-1) .. 2^i − 1]
			}
			return lo + float64(target-cum)/float64(b.Count)*(float64(b.Le)-lo)
		}
		cum += b.Count
	}
	return float64(d.buckets[len(d.buckets)-1].Le)
}

func (d histDelta) mean() float64 {
	if d.count <= 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// handlerOps are the operations whose server-side handler latency is
// reported; a workload that never sends one reports 0 for it.
var handlerOps = []string{"DirectTransfer", "RequestCheque", "RedeemCheque", "Usage.Submit", "Micropay.Submit"}

// daemonLayers folds one traced workload run into per-layer metrics.
func daemonLayers(res *result, m map[string]float64) {
	b, a := res.Before, res.After
	items := float64(res.ItemsTraced)
	per := func(v float64) float64 {
		if items <= 0 {
			return 0
		}
		return v / items
	}
	m["core.queue_wait_p50_us"] = deltaOf(b, a, "server.queue_wait").p50()
	m["core.write_batch_mean"] = deltaOf(b, a, "server.write_batch").mean()
	for _, op := range handlerOps {
		m["core.handler_p50_us."+op] = deltaOf(b, a, "server.op."+op+".latency").p50()
	}
	m["db.fsyncs_per_op"] = per(float64(deltaOf(b, a, "db.fsync").count))
	m["db.journal_bytes_per_op"] = per(float64(findCounter(a, "db.journal_bytes") - findCounter(b, "db.journal_bytes")))
	m["db.occ_retries_per_op"] = per(float64(findCounter(a, "db.occ_retries") - findCounter(b, "db.occ_retries")))
	for _, step := range []string{"prepare", "decide", "credit", "finalize"} {
		m["shard.2pc_"+step+"_p50_us"] = deltaOf(b, a, "shard.2pc."+step).p50()
	}
	// Queue depth and drain time exist only on the pipeline the workload
	// drives.
	for layer, workload := range map[string]string{"usage": "usage_batch", "micropay": "pay_as_you_go"} {
		m[layer+".queue_depth_mean"], m[layer+".drain_s"] = 0, 0
		if res.Workload == workload {
			m[layer+".queue_depth_mean"], m[layer+".drain_s"] = res.QueueDepthMean, res.DrainS
		}
	}
	m["trace_overhead"] = res.TraceOverhead
	m["failed_share"] = 0
	if res.Attempted > 0 {
		m["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	}
}

// endToEnd lists one untraced run's end-to-end metrics.
func endToEnd(res *result) map[string]measured {
	seg := func(s segmentStat) measured {
		return measured{Value: s.Value, Spread: s.Spread, Samples: s.Samples}
	}
	return map[string]measured{
		"setup_s":              {Value: res.SetupS, Samples: 1},
		"throughput_per_s":     seg(res.Throughput),
		"latency_p50_ms":       seg(res.LatencyP50Ms),
		"latency_p99_ms":       seg(res.LatencyTailMs),
		"solo_p50_ms":          {Value: res.SoloP50Ms, Samples: res.SoloSamples},
		"solo_fsyncs_per_op":   {Value: res.SoloFsyncsPerOp, Samples: res.SoloSamples},
		"server_cpu_us_per_op": seg(res.ServerCPUUsPerOp),
		"wal_bytes_per_op":     seg(res.WALBytesPerOp),
		"server_rss_mb":        {Value: res.ServerRSSMiB, Samples: 1},
		"restart_replay_s":     {Value: res.RestartReplayS, Samples: 1},
		"restart_checkpoint_s": {Value: res.RestartCheckpointS, Samples: 1},
	}
}
