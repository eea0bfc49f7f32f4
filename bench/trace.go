package bench

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval: a workload, a round, an HTTP request or
// a timed public call, linked to the span that caused it. Spans that
// carry only a duration (per-cell phase totals, which the probe reports
// summed over the run rather than as intervals) have no start.
type Span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns,omitempty"`
	Dur    int64             `json:"dur_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per would-be span.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	log  []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  []string
}

// start opens a span under parent; attrs are key, value pairs.
func (t *tracer) start(parent int64, name string, attrs ...string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now(), attrs: attrs}
}

// end records the span with any extra attrs.
func (s openSpan) end(attrs ...string) {
	if s.t == nil {
		return
	}
	s.t.add(Span{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)),
		Dur:   int64(time.Since(s.start)),
		Attrs: attrMap(append(s.attrs, attrs...)),
	})
}

// duration records a start-less span that carries only a duration.
func (t *tracer) duration(parent int64, name string, d time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	t.add(Span{ID: t.next.Add(1), Parent: parent, Name: name, Dur: int64(d), Attrs: attrMap(attrs)})
}

func (t *tracer) add(s Span) {
	t.mu.Lock()
	t.log = append(t.log, s)
	t.mu.Unlock()
}

// spans returns the recorded spans (nil for a nil tracer).
func (t *tracer) spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.log...)
}

func attrMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
