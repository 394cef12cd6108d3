package obs

import (
	"testing"
	"time"
)

// These benchmarks price the hot-path primitives the instrumented
// subsystems call per request.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench.gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(start)
	}
}

func BenchmarkNewTraceID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTraceID()
	}
}

func BenchmarkNilHandles(b *testing.B) {
	var c *Counter
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}
