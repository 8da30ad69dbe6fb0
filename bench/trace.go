package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's side of each layer's public API only —
// nothing inside the program is instrumented — kept in memory, and
// written out when the workload ends.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 = a request's root span
	Req    uint64 `json:"req"`              // spans of one request share it
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer is the untraced run: every method
// is a no-op, so call sites need no branch.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// sampled returns the tracer for every other request and nil — the
// untraced path — for the rest, so one run holds both populations.
func (t *tracer) sampled(i int) *tracer {
	if t == nil || i%2 == 0 {
		return nil
	}
	return t
}

// start opens a span and returns its id (to parent children on) and the
// function that closes it. req 0 makes the span the root of a new
// request whose identifier is the span's own id.
func (t *tracer) start(layer, name string, parent, req uint64) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.nextID.Add(1)
	if req == 0 {
		req = id
	}
	begin := time.Since(t.origin)
	return id, func() {
		sp := span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
			Start: int64(begin), End: int64(time.Since(t.origin))}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// selfTimes returns, per layer, the summed self time of its spans in
// nanoseconds: a span's duration minus the part of that interval its
// child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[string]int64)
	for _, sp := range spans {
		self[sp.Layer] += (sp.End - sp.Start) - covered(children[sp.ID], sp.Start, sp.End)
	}
	return self
}

// covered measures the union of the child intervals clipped to
// [lo, hi): overlapping children (concurrent sub-calls) count once.
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := lo
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := map[string]any{"meta": meta, "spans": spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
