package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Client-side spans for the traced run. Each caller appends to its own
// buffer (no locks on the hot path), the buffers are merged and written
// as JSON when the run ends. With tracing off every buffer is nil and
// every call here is a no-op, so the measured run carries no span cost.

// span is one timed interval. Parent 0 marks an operation's root span;
// every span of one operation shares Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

// spanBuf is one goroutine's span buffer.
type spanBuf struct {
	epoch time.Time
	base  uint64 // high bits of every ID from this buffer
	spans []span
}

// spanRef names a span that is still open.
type spanRef struct {
	buf *spanBuf
	idx int
}

func newSpanBuf(epoch time.Time, owner int) *spanBuf {
	return &spanBuf{epoch: epoch, base: uint64(owner+1) << 40}
}

// root opens an operation's root span.
func (b *spanBuf) root(name string) spanRef {
	if b == nil {
		return spanRef{}
	}
	id := b.base | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{ID: id, Op: id, Name: name, Start: int64(time.Since(b.epoch))})
	return spanRef{buf: b, idx: len(b.spans) - 1}
}

// child opens a span caused by r.
func (r spanRef) child(name string) spanRef {
	b := r.buf
	if b == nil {
		return spanRef{}
	}
	parent := b.spans[r.idx]
	id := b.base | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{ID: id, Parent: parent.ID, Op: parent.Op, Name: name, Start: int64(time.Since(b.epoch))})
	return spanRef{buf: b, idx: len(b.spans) - 1}
}

// end closes the span.
func (r spanRef) end() {
	if r.buf != nil {
		r.buf.spans[r.idx].End = int64(time.Since(r.buf.epoch))
	}
}

// writeSpans merges the buffers in start order and writes them to path.
func writeSpans(path string, bufs []*spanBuf) (int, error) {
	var all []span
	for _, b := range bufs {
		if b != nil {
			all = append(all, b.spans...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	raw, err := json.Marshal(all)
	if err != nil {
		return 0, err
	}
	return len(all), os.WriteFile(path, raw, 0o644)
}
