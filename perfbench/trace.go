package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxCapturedOps bounds how many ops of each kind keep their request and
// reply envelopes for the per-layer replays; every op still gets spans.
const maxCapturedOps = 12

// spanRec is one finished span. Times are nanoseconds from the start of
// the traced window; every span of an op shares the op's trace id.
type spanRec struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callCapture is one HTTP round trip of a captured op: the SOAP
// operation, both envelopes, and the round-trip time (request written
// to reply body closed).
type callCapture struct {
	span    *activeSpan
	op      *opCapture
	soapOp  string
	path    string
	req     []byte
	reply   bytes.Buffer
	closing sync.Once
}

// opCapture accumulates what the traced run learns about one op.
type opCapture struct {
	kind    string
	mu      sync.Mutex
	dur     time.Duration // op span
	callDur time.Duration // client-observed time of its calls
	rtDur   time.Duration // their HTTP round trips
	calls   []*callCapture
	wfRun   time.Duration // Engine.Run, compositions only
	wfCalls time.Duration // soap.client spans inside Engine.Run
	wfTasks int
}

// tracer records spans in memory and captures the envelopes of the first
// maxCapturedOps ops of each kind.
type tracer struct {
	t0      time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []spanRec
	ops     []*opCapture
	perKind map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), perKind: map[string]int{}} }

type spanKey struct{}

// spanCtx is the identity a context carries: the op's trace, the
// innermost open span and, for captured ops, the capture.
type spanCtx struct {
	trace, id uint64
	op        *opCapture
}

type activeSpan struct {
	t     *tracer
	rec   spanRec
	began time.Time
}

// begin opens a span under ctx's span (or a new trace at the root).
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *activeSpan) {
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	id := t.next.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	now := time.Now()
	s := &activeSpan{t: t, began: now,
		rec: spanRec{Trace: trace, ID: id, Parent: parent.id, Name: name, Start: int64(now.Sub(t.t0))}}
	return context.WithValue(ctx, spanKey{}, spanCtx{trace: trace, id: id, op: parent.op}), s
}

// end closes the span and returns its duration.
func (s *activeSpan) end() time.Duration {
	now := time.Now()
	s.rec.End = int64(now.Sub(s.t.t0))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
	return now.Sub(s.began)
}

// startOp opens an op's root span; the returned finish closes it.
// A nil tracer (untraced window) makes both no-ops.
func (t *tracer) startOp(ctx context.Context, kind string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	var op *opCapture
	t.mu.Lock()
	if t.perKind[kind] < maxCapturedOps {
		t.perKind[kind]++
		op = &opCapture{kind: kind}
	}
	t.mu.Unlock()
	ctx = context.WithValue(ctx, spanKey{}, spanCtx{op: op})
	ctx, s := t.begin(ctx, "op."+kind)
	return ctx, func() {
		d := s.end()
		if op != nil {
			op.dur = d
			t.mu.Lock()
			t.ops = append(t.ops, op)
			t.mu.Unlock()
		}
	}
}

// call opens a span around one client-library call; its duration is
// the client-observed time of that call.
func (t *tracer) call(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	ctx, s := t.begin(ctx, name)
	op := opOf(ctx)
	return ctx, func() {
		d := s.end()
		if op != nil {
			op.mu.Lock()
			op.callDur += d
			op.mu.Unlock()
		}
	}
}

func opOf(ctx context.Context) *opCapture {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc.op
}

// addSOAPClientSpans folds the library's own soap.client spans, gathered
// with an obs collector during a composition, into the span log and the
// op's call time; it returns their total duration.
func (t *tracer) addSOAPClientSpans(ctx context.Context, spans []obs.Span) time.Duration {
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	var total time.Duration
	for _, sp := range spans {
		if sp.Component != "soap.client" {
			continue
		}
		d := time.Duration(sp.DurationMS * float64(time.Millisecond))
		total += d
		start := int64(sp.Start.Sub(t.t0))
		t.mu.Lock()
		t.spans = append(t.spans, spanRec{Trace: parent.trace, ID: t.next.Add(1), Parent: parent.id,
			Name: "soap.client." + sp.Name, Start: start, End: start + int64(d)})
		t.mu.Unlock()
	}
	if op := parent.op; op != nil {
		op.mu.Lock()
		op.callDur += total
		op.mu.Unlock()
	}
	return total
}

// beginRoundTrip opens the round-trip span of an outgoing request and,
// for captured ops, copies its envelope.
func (t *tracer) beginRoundTrip(req *http.Request) *callCapture {
	ctx, s := t.begin(req.Context(), "http.roundtrip")
	c := &callCapture{span: s, op: opOf(ctx),
		soapOp: strings.Trim(req.Header.Get("SOAPAction"), `"`), path: req.URL.Path}
	if c.op != nil && req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err == nil {
			c.req = b
			req.Body = io.NopCloser(bytes.NewReader(b))
		}
	}
	return c
}

// wrapBody ends the round trip when the reply body is closed, keeping a
// copy of the reply for captured ops.
func (c *callCapture) wrapBody(body io.ReadCloser) io.ReadCloser {
	return &captureBody{ReadCloser: body, c: c}
}

type captureBody struct {
	io.ReadCloser
	c *callCapture
}

func (b *captureBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.c.op != nil && n > 0 {
		b.c.reply.Write(p[:n])
	}
	return n, err
}

func (b *captureBody) Close() error {
	err := b.ReadCloser.Close()
	b.c.closing.Do(func() {
		rt := b.c.span.end()
		if op := b.c.op; op != nil {
			op.mu.Lock()
			op.rtDur += rt
			op.calls = append(op.calls, b.c)
			op.mu.Unlock()
		}
	})
	return err
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// numSpans is how many spans have been recorded.
func (t *tracer) numSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// captured returns the captured ops of one kind.
func (t *tracer) captured(kind string) []*opCapture {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*opCapture
	for _, op := range t.ops {
		if op.kind == kind {
			out = append(out, op)
		}
	}
	return out
}
