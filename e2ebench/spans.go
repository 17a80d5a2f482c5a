package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer collects the spans the benchmark records around its calls into
// each layer's public functions. Spans are recorded per goroutine (one
// recorder each, no locking on the hot path) and merged when the run
// ends. A nil *tracer and a nil *recorder are valid and record nothing,
// which is how the untraced runs pay nothing for the instrumentation.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	recs   []*recorder
	stored atomic.Int64 // raw spans kept for the dump, over all recorders
}

// maxStoredSpans bounds the raw spans kept for the span dump (about 12 MB
// written); spans past it still feed the per-name aggregates.
const maxStoredSpans = 100_000

// maxDurations bounds the per-name duration samples kept for percentiles.
const maxDurations = 1 << 21

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is one recorded call: name, start and end (ns since the tracer
// started), the id of the span that caused it (0 for a root) and the id
// of the request it served (0 when the call serves no single request).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count int64
	total int64 // ns
	self  int64 // ns: duration minus time covered by same-goroutine children
	durs  []int64
}

type openSpan struct {
	span
	child int64 // ns covered by finished children
}

// recorder records the spans of one goroutine. Spans nest strictly
// (LIFO) within a goroutine; root spans take the recorder's parent, which
// links a worker goroutine's calls to the phase span that started it.
type recorder struct {
	tr     *tracer
	base   uint64
	next   uint64
	parent uint64
	stack  []openSpan
	spans  []span
	agg    map[string]*spanAgg
}

// recorder returns a new goroutine-private recorder whose root spans are
// children of parent.
func (t *tracer) recorder(parent uint64) *recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{
		tr:     t,
		base:   uint64(len(t.recs)+1) << 40,
		parent: parent,
		agg:    make(map[string]*spanAgg),
	}
	t.recs = append(t.recs, r)
	return r
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, req uint64) uint64 {
	if r == nil {
		return 0
	}
	r.next++
	id := r.base | r.next
	parent := r.parent
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].ID
	}
	r.stack = append(r.stack, openSpan{span: span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.tr.t0)),
	}})
	return id
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.tr.t0))
	n := len(r.stack) - 1
	o := r.stack[n]
	r.stack = r.stack[:n]
	o.End = now
	dur := o.End - o.Start
	if n > 0 {
		r.stack[n-1].child += dur
	}
	a := r.agg[o.Name]
	if a == nil {
		a = &spanAgg{}
		r.agg[o.Name] = a
	}
	a.count++
	a.total += dur
	a.self += dur - o.child
	if len(a.durs) < maxDurations {
		a.durs = append(a.durs, dur)
	}
	if r.tr.stored.Add(1) <= maxStoredSpans {
		r.spans = append(r.spans, o.span)
	}
}

// merged returns the per-name aggregates over every recorder. Call it only
// after every goroutine that recorded has finished.
func (t *tracer) merged() map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.recs {
		for name, a := range r.agg {
			m := out[name]
			if m == nil {
				m = &spanAgg{}
				out[name] = m
			}
			m.count += a.count
			m.total += a.total
			m.self += a.self
			m.durs = append(m.durs, a.durs...)
		}
	}
	return out
}

// durations returns the recorded durations (µs) of spans called name.
func (t *tracer) durations(name string) []float64 {
	a := t.merged()[name]
	if a == nil {
		return nil
	}
	out := make([]float64, len(a.durs))
	for i, d := range a.durs {
		out[i] = float64(d) / 1e3
	}
	return out
}

// layerOf names the layer a span belongs to: the first dot-separated
// element of its name ("transport.ServeFlow.Report" -> "transport").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSelfTimes prints each layer's self time (span time not covered by
// the same goroutine's child spans) and, under it, each span name.
func (t *tracer) writeSelfTimes(w io.Writer) {
	agg := t.merged()
	type row struct {
		name        string
		count       int64
		total, self int64
	}
	layers := map[string]*row{}
	var names []row
	var all int64
	for name, a := range agg {
		names = append(names, row{name, a.count, a.total, a.self})
		l := layers[layerOf(name)]
		if l == nil {
			l = &row{name: layerOf(name)}
			layers[l.name] = l
		}
		l.count += a.count
		l.total += a.total
		l.self += a.self
		all += a.self
	}
	var ls []row
	for _, l := range layers {
		ls = append(ls, *l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].self > ls[j].self })
	sort.Slice(names, func(i, j int) bool { return names[i].self > names[j].self })
	fmt.Fprintf(w, "self time by layer (spans recorded by the benchmark around each layer call):\n")
	for _, l := range ls {
		fmt.Fprintf(w, "  layer %-10s self %10.1f ms  %5.1f%%  spans %d\n",
			l.name, float64(l.self)/1e6, 100*float64(l.self)/float64(max(all, 1)), l.count)
	}
	for _, n := range names {
		fmt.Fprintf(w, "    span %-38s self %10.1f ms  total %10.1f ms  n %d\n",
			n.name, float64(n.self)/1e6, float64(n.total)/1e6, n.count)
	}
}

// dump writes every stored span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, r := range t.recs {
		for i := range r.spans {
			if err := enc.Encode(&r.spans[i]); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
