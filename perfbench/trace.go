package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/realtime"
)

// span is one timed call the benchmark made into a layer. Parent is the
// span that caused it (0 for a root). Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans one run keeps in memory; later spans are only
// counted, so a long run cannot grow the trace without bound.
const maxSpans = 100000

// tracer keeps a run's spans in memory until the benchmark writes them
// out. A nil *tracer records nothing, which is how untraced runs call the
// same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id (0 when not recorded).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.open(name, parent)
	fn()
	t.close(id)
}

// snapshot returns the recorded spans and how many were dropped.
func (t *tracer) snapshot() ([]span, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// selectorStats accumulates what the selector wrapper saw.
type selectorStats struct {
	calls atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

// tracedSelector times every Select call of the selector it wraps, at the
// core.Config.NewSelector injection point.
type tracedSelector struct {
	inner grad.Selector
	st    *selectorStats
	tr    *tracer
}

// Name implements grad.Selector; it reports the inner selector's name so
// config fingerprints and logs are unchanged.
func (s *tracedSelector) Name() string { return s.inner.Name() }

// Select implements grad.Selector.
func (s *tracedSelector) Select(to int, params []*nn.Param, budgetBytes int) []*grad.Selection {
	id := s.tr.open("grad.Select", 0)
	t0 := time.Now()
	out := s.inner.Select(to, params, budgetBytes)
	s.st.ns.Add(time.Since(t0).Nanoseconds())
	s.tr.close(id)
	s.st.calls.Add(1)
	s.st.bytes.Add(int64(grad.TotalBytes(out)))
	return out
}

// tracedInvariantSelector is the wrapper of a grad.LinkInvariant selector.
// It carries the marker too: without it the worker would turn off its
// per-iteration selection cache and the traced run would measure a
// different program.
type tracedInvariantSelector struct{ *tracedSelector }

// LinkInvariantSelection implements grad.LinkInvariant.
func (tracedInvariantSelector) LinkInvariantSelection() {}

// traceSelector wraps a NewSelector factory so every selector it builds is
// timed into st. The wrapper implements grad.LinkInvariant exactly when
// the inner selector does.
func traceSelector(newSel func() grad.Selector, st *selectorStats, tr *tracer) func() grad.Selector {
	return func() grad.Selector {
		inner := newSel()
		w := &tracedSelector{inner: inner, st: st, tr: tr}
		if _, ok := inner.(grad.LinkInvariant); ok {
			return tracedInvariantSelector{w}
		}
		return w
	}
}

// transportStats accumulates what the transport wrappers saw.
type transportStats struct {
	sends     atomic.Int64
	sendNS    atomic.Int64
	sendBytes atomic.Int64
	sendErrs  atomic.Int64
	recvs     atomic.Int64
	recvNS    atomic.Int64
}

// tracedTransport times the Send and Recv calls of a realtime.Transport,
// at the realtime.Config.Transport injection point. Recv time is the time
// a node's receive pump waited for the broker.
type tracedTransport struct {
	inner realtime.Transport
	st    *transportStats
	tr    *tracer
}

// Send implements realtime.Transport.
func (t *tracedTransport) Send(to int, payload []byte) error {
	id := t.tr.open("queue.Send", 0)
	t0 := time.Now()
	err := t.inner.Send(to, payload)
	t.st.sendNS.Add(time.Since(t0).Nanoseconds())
	t.tr.close(id)
	t.st.sends.Add(1)
	t.st.sendBytes.Add(int64(len(payload)))
	if err != nil {
		t.st.sendErrs.Add(1)
	}
	return err
}

// Recv implements realtime.Transport.
func (t *tracedTransport) Recv() ([]byte, error) {
	t0 := time.Now()
	p, err := t.inner.Recv()
	if err == nil {
		t.st.recvNS.Add(time.Since(t0).Nanoseconds())
		t.st.recvs.Add(1)
	}
	return p, err
}

// Close implements realtime.Transport.
func (t *tracedTransport) Close() error { return t.inner.Close() }
