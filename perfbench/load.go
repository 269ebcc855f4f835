package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
)

// maxWorkers bounds the client's concurrency: at most this many requests
// (and pooled connections) are in flight at once, whatever the workload.
const maxWorkers = 2

// callTimeout bounds every single request.
const callTimeout = 10 * time.Second

// phaseCount tallies HTTP requests of one run phase.
type phaseCount struct{ sent, ok, failed atomic.Int64 }

// transport counts every request against the current phase and, in the
// traced run, hands it to the tracer for span and envelope capture.
type transport struct {
	base  http.RoundTripper
	phase atomic.Pointer[phaseCount]
	tr    atomic.Pointer[tracer]
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	pc := t.phase.Load()
	pc.sent.Add(1)
	var rec *callCapture
	if tr := t.tr.Load(); tr != nil {
		rec = tr.beginRoundTrip(req)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		pc.failed.Add(1)
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		pc.ok.Add(1)
	} else {
		pc.failed.Add(1)
	}
	if rec != nil {
		resp.Body = rec.wrapBody(resp.Body)
	}
	return resp, nil
}

// env is the client side of one dmserver: the typed client, the raw SOAP
// client it wraps (workflow units share it) and the counting transport.
type env struct {
	base   string
	soap   *soap.Client
	client *core.Client
	tp     *transport
}

func newEnv(base string, phase *phaseCount) *env {
	tp := &transport{base: &http.Transport{
		MaxConnsPerHost:     maxWorkers,
		MaxIdleConnsPerHost: maxWorkers,
		IdleConnTimeout:     90 * time.Second,
	}}
	tp.phase.Store(phase)
	sc := soap.NewClient(soap.WithHTTPClient(&http.Client{Transport: tp, Timeout: 30 * time.Second}))
	return &env{base: base, soap: sc, client: core.NewClient(base, core.WithSOAPClient(sc)), tp: tp}
}

func (e *env) setPhase(p *phaseCount) { e.tp.phase.Store(p) }

// tracer returns the active tracer (nil in untraced windows).
func (e *env) tracer() *tracer { return e.tp.tr.Load() }

// close releases the client's idle connections.
func (e *env) close() {
	if t, ok := e.tp.base.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// arrival is one scheduled open-loop request: its due offset from the
// window start, its kind (an index into the workload's mix) and a
// seeded selector the workload maps onto its pool of prepared inputs.
type arrival struct {
	due  time.Duration
	kind int
	pick int
}

// mixBlock is the length of the blocks in which a schedule's kinds
// follow their weights exactly.
const mixBlock = 20

// schedule lays out an open-loop arrival sequence: evenly spaced at rate
// per second over dur. In every block of mixBlock arrivals each kind
// appears its weight's share of the block, in a seeded order, so seeds
// change which inputs are sent and in what order but not the mix; each
// arrival's input selector comes from the same seeded stream. Equal
// seeds give equal schedules.
func schedule(seed int64, rate float64, dur time.Duration, weights []float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for _, w := range weights {
		total += w
	}
	// Cumulative rounding makes the per-kind counts sum to mixBlock.
	var block []int
	var cum float64
	for k, w := range weights {
		lo := int(math.Round(cum / total * mixBlock))
		cum += w
		for hi := int(math.Round(cum / total * mixBlock)); lo < hi; lo++ {
			block = append(block, k)
		}
	}
	n := int(rate * dur.Seconds())
	out := make([]arrival, n)
	for i := range out {
		if i%mixBlock == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		out[i] = arrival{
			due:  time.Duration(float64(i) * float64(time.Second) / rate),
			kind: block[i%mixBlock],
			pick: rng.Intn(1 << 30),
		}
	}
	return out
}

// opResult is what one op reports back to the runner.
type opResult struct {
	err   error
	rows  int
	warm  bool // a classify call on an already-trained session model
	build bool // a createSession on a fresh content key
	// warmHop, when set, is the latency of the warm classify hop inside
	// a larger op.
	warmHop time.Duration
}

// opRecord is one finished op of a timed window; times are offsets from
// the window start. Latency is always measured from due, which for a
// closed loop is the send time.
type opRecord struct {
	kind            string
	due, start, end time.Duration
	opResult
}

func (r opRecord) latency() time.Duration { return r.end - r.due }
func (r opRecord) lag() time.Duration     { return r.start - r.due }

// opFunc runs one op on behalf of worker w and checks its reply.
type opFunc func(ctx context.Context, w int, a arrival) opResult

// runOpen drives an open-loop schedule from t0 through workers worker
// goroutines: a generator releases each arrival at its due time, idle
// workers take them in order, and each op is timed from its due time, so
// a stalled worker or server shows as latency instead of being hidden by
// the loop slowing down.
func runOpen(ctx context.Context, t0 time.Time, sched []arrival, workers int, kinds []string, do opFunc) []opRecord {
	recs := make([]opRecord, len(sched))
	ch := make(chan int, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				a := sched[i]
				start := time.Since(t0)
				res := do(ctx, w, a)
				recs[i] = opRecord{kind: kinds[a.kind], due: a.due, start: start, end: time.Since(t0), opResult: res}
			}
		}(w)
	}
	for i, a := range sched {
		if d := time.Until(t0.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return recs
}

// runClosed drives workers closed loops from t0 until dur has passed:
// each worker issues its next op as soon as the previous one returns.
// Ops started before the deadline run to completion.
func runClosed(ctx context.Context, t0 time.Time, dur time.Duration, workers int, kind string, do func(ctx context.Context, w, iter int) opResult) []opRecord {
	per := make([][]opRecord, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; time.Since(t0) < dur; iter++ {
				start := time.Since(t0)
				res := do(ctx, w, iter)
				per[w] = append(per[w], opRecord{kind: kind, due: start, start: start, end: time.Since(t0), opResult: res})
			}
		}(w)
	}
	wg.Wait()
	var out []opRecord
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// withTimeout wraps one request's context with the per-call bound.
func withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, callTimeout)
}
