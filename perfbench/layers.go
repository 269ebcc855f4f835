package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/services"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wire"
)

// The traced run measures each layer from outside the program: it times
// the layers' public functions on the very envelopes and blocks the
// workload exchanged with the server (captured by the client transport),
// and reads counts from the server's /metrics as deltas over the traced
// window.

// replayReps is how many timed repetitions each replayed call gets; the
// median is kept.
const replayReps = 5

// perLayerUnits lists every per-layer metric with its unit, in print order.
var perLayerUnits = []struct{ name, unit string }{
	{"soap.request_bytes", "bytes"}, {"soap.reply_bytes", "bytes"},
	{"soap.decode_us", "us"}, {"soap.decode_allocs", "count"}, {"soap.encode_us", "us"},
	{"wire.decode_us", "us"}, {"wire.decode_allocs", "count"}, {"wire.encode_us", "us"},
	{"wire.result_encode_us", "us"}, {"wire.result_decode_us", "us"},
	{"arff.parse_us", "us"}, {"arff.format_us", "us"},
	{"classify.predict_batch_us", "us"}, {"classify.label_us", "us"}, {"classify.evaluate_us", "us"},
	{"cluster.build_assign_us", "us"}, {"filter.apply_us", "us"}, {"regress.train_predict_us", "us"},
	{"classify.train_ms", "ms"},
	{"services.serve_us", "us"}, {"services.self_us", "us"}, {"transport.us", "us"}, {"core.client_us", "us"},
	{"harness.acquire_hit_us", "us"}, {"harness.hits", "count"}, {"harness.restores", "count"},
	{"harness.builds", "count"}, {"harness.hit_ratio", "ratio"}, {"harness.hit_wait_p99_ms", "ms"},
	{"store.put_ms", "ms"}, {"store.get_us", "us"}, {"model.marshal_us", "us"}, {"model.unmarshal_us", "us"},
	{"store.puts", "count"}, {"store.hits", "count"}, {"store.misses", "count"},
	{"admission.inflight_peak", "count"}, {"admission.shed", "count"},
	{"workflow.run_ms", "ms"}, {"workflow.self_ms", "ms"}, {"workflow.tasks", "count"},
	{"runtime.gc_per_op", "gc/op"},
	{"trace.overhead_ms", "ms"}, {"trace.unattributed_share", "ratio"}, {"trace.spans", "count"},
	{"op.untraced_p50_ms", "ms"}, {"op.traced_p50_ms", "ms"}, {"loadgen.lag_p99_ms", "ms"},
	{"op_p99_ms", "ms"}, {"hit_p99_ms", "ms"}, {"build_p50_ms", "ms"},
}

// opLayers is the replayed cost of one captured op, split by side: the
// client's encode/decode work, the server's named layers, the server's
// whole in-process ServeHTTP, and the live call and round-trip times.
type opLayers struct {
	v map[string]float64 // per-layer sums for this op (µs, bytes, counts)
	// Attribution, µs.
	op, calls, client, serve, serverNamed, wfSelf float64
}

func (o *opLayers) add(k string, x float64) { o.v[k] += x }

// timeUS runs fn once to warm it, then replayReps times, and returns the
// median duration in µs.
func timeUS(fn func()) float64 {
	fn()
	var ds []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0))/1e3)
	}
	return median(ds)
}

// allocs counts heap allocations of one fn call.
func allocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// inproc hosts the workload's services in this process, over a private
// harness, so captured envelopes can be replayed through ServeHTTP.
type inproc struct {
	mux     *http.ServeMux
	backend *harness.CachedBackend
}

func newInproc(sessions []trainJob) (*inproc, error) {
	h := &inproc{mux: http.NewServeMux(), backend: harness.NewCachedBackend(256)}
	services.Host(h.mux, "http://inproc",
		services.NewClassifierService(h.backend), services.NewSessionService(h.backend),
		services.NewClustererService(), services.NewFilterService(), services.NewRegressorService())
	for _, s := range sessions {
		body, err := soap.Marshal(soap.Message{Operation: "createSession", Parts: map[string]string{
			services.PartDataset: arff.Format(s.d), services.PartClassifier: s.alg,
			services.PartAttribute: s.d.ClassAttribute().Name,
		}})
		if err != nil {
			return nil, err
		}
		if code := h.serve("/services/Session", "createSession", body); code != http.StatusOK {
			return nil, fmt.Errorf("in-process createSession: HTTP %d", code)
		}
	}
	return h, nil
}

func (h *inproc) serve(path, op string, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `"`+op+`"`)
	rec := httptest.NewRecorder()
	h.mux.ServeHTTP(rec, req)
	return rec.Code
}

// sessionModel returns the in-process model behind a session token.
func (h *inproc) sessionModel(token string) (classify.Classifier, string, error) {
	key, err := tokenKey(token)
	if err != nil {
		return nil, "", err
	}
	c, err := h.backend.Acquire(key, func() (classify.Classifier, error) {
		return nil, fmt.Errorf("session %s not trained in process", key)
	})
	return c, key, err
}

// replayOp replays every captured call of op.
func (h *inproc) replayOp(op *opCapture) (*opLayers, error) {
	o := &opLayers{v: map[string]float64{},
		op: float64(op.dur) / 1e3, calls: float64(op.callDur) / 1e3}
	for _, c := range op.calls {
		if err := h.replayCall(c, o); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", c.soapOp, err)
		}
	}
	if op.wfRun > 0 {
		o.wfSelf = float64(op.wfRun-op.wfCalls) / 1e3
	}
	return o, nil
}

// replayCall times one round trip's layers. Server-side layers: request
// envelope decode, request block decode, ARFF parse, model acquire,
// kernel, result block encode, reply envelope encode. Client-side: the
// mirror images.
func (h *inproc) replayCall(c *callCapture, o *opLayers) error {
	reqB, repB := c.req, c.reply.Bytes()
	o.add("soap.request_bytes", float64(len(reqB)))
	o.add("soap.reply_bytes", float64(len(repB)))
	var req, rep soap.Message
	var err error
	srv := func(k string, us float64) { o.add(k, us); o.serverNamed += us }
	cli := func(k string, us float64) { o.add(k, us); o.client += us }

	srv("soap.decode_us", timeUS(func() { req, err = soap.Unmarshal(bytes.NewReader(reqB)) }))
	if err != nil {
		return err
	}
	cli("soap.decode_us", timeUS(func() { rep, err = soap.Unmarshal(bytes.NewReader(repB)) }))
	if err != nil {
		return err
	}
	o.add("soap.decode_allocs", allocs(func() { _, _ = soap.Unmarshal(bytes.NewReader(reqB)) })+
		allocs(func() { _, _ = soap.Unmarshal(bytes.NewReader(repB)) }))
	cli("soap.encode_us", timeUS(func() { _, _ = soap.Marshal(req) }))
	srv("soap.encode_us", timeUS(func() { _, _ = soap.Marshal(rep) }))

	parts := req.Parts
	var batch *dataset.Dataset
	if p := strings.TrimSpace(parts[services.PartPayload]); p != "" {
		srv("wire.decode_us", timeUS(func() { batch, err = wire.UnmarshalBase64(p) }))
		if err != nil {
			return err
		}
		o.add("wire.decode_allocs", allocs(func() { _, _ = wire.UnmarshalBase64(p) }))
		cli("wire.encode_us", timeUS(func() { _, _ = wire.MarshalBase64(batch) }))
	}
	texts := map[string]*dataset.Dataset{}
	for _, part := range []string{services.PartDataset, services.PartInstances} {
		if s := parts[part]; s != "" {
			var d *dataset.Dataset
			srv("arff.parse_us", timeUS(func() { d, err = arff.ParseString(s) }))
			if err != nil {
				return err
			}
			cli("arff.format_us", timeUS(func() { _ = arff.Format(d) }))
			texts[part] = d
		}
	}
	// Time the reply block's decode on the client and its encode on the
	// server, whichever block codec the operation answers with.
	result := func(dec func(string) (any, error), enc func(any)) error {
		p := strings.TrimSpace(rep.Parts[services.PartPayload])
		var v any
		cli("wire.result_decode_us", timeUS(func() { v, err = dec(p) }))
		if err != nil {
			return err
		}
		srv("wire.result_encode_us", timeUS(func() { enc(v) }))
		return nil
	}
	acquire := func() (classify.Classifier, error) {
		m, key, err := h.sessionModel(parts[services.PartSession])
		if err == nil {
			o.add("acquires", 1)
			srv("harness.acquire_hit_us", timeUS(func() { _, _ = h.backend.Acquire(key, nil) }))
		}
		return m, err
	}

	switch c.soapOp {
	case "classifyBatch":
		m, err := acquire()
		if err != nil {
			return err
		}
		srv("classify.predict_batch_us", timeUS(func() { _, _, _ = classify.PredictBatch(m, batch) }))
		err = result(func(s string) (any, error) { return wire.UnmarshalResultBase64(s) },
			func(v any) { _, _ = wire.MarshalResultBase64(v.(*wire.Result)) })
		if err != nil {
			return err
		}
	case "classify":
		m, err := acquire()
		if err != nil {
			return err
		}
		d := texts[services.PartInstances]
		srv("classify.label_us", timeUS(func() { _, _ = classify.Label(m, d) }))
	case "classifyInstance":
		d := texts[services.PartDataset]
		key := services.InstanceKey(parts[services.PartClassifier], nil, d, parts[services.PartAttribute])
		m, err := h.backend.Acquire(key, services.TrainBuilderContext(context.Background(), parts[services.PartClassifier], nil, d))
		if err != nil {
			return err
		}
		o.add("acquires", 1)
		srv("harness.acquire_hit_us", timeUS(func() { _, _ = h.backend.Acquire(key, nil) }))
		srv("classify.evaluate_us", timeUS(func() {
			ev, _ := classify.NewEvaluation(d)
			_ = ev.TestModel(m, d)
			_ = ev.String()
		}))
	case "filterBatch":
		var f filter.Filter = filter.Normalize{}
		if parts[services.PartFilter] == "ReplaceMissingValues" {
			f = filter.ReplaceMissing{}
		}
		srv("filter.apply_us", timeUS(func() { _, _ = filter.ApplyColumns(f, batch) }))
		err = result(func(s string) (any, error) { return wire.UnmarshalBase64(s) },
			func(v any) { _, _ = wire.MarshalBase64(v.(*dataset.Dataset)) })
		if err != nil {
			return err
		}
	case "clusterBatch":
		srv("cluster.build_assign_us", timeUS(func() { _, _ = kmeansAssign(batch) }))
		err = result(func(s string) (any, error) { return wire.UnmarshalClusterResultBase64(s) },
			func(v any) { _, _ = wire.MarshalClusterResultBase64(v.(*wire.ClusterResult)) })
		if err != nil {
			return err
		}
	case "regressBatch":
		d := texts[services.PartDataset]
		if _, i := d.AttributeByName(parts[services.PartAttribute]); i >= 0 {
			d.ClassIndex = i
		}
		srv("regress.train_predict_us", timeUS(func() {
			r, _ := regress.New("LinearRegression")
			_ = r.Train(d)
			_, _ = regress.PredictBatch(r, batch)
		}))
		err = result(func(s string) (any, error) { return wire.UnmarshalRegressResultBase64(s) },
			func(v any) { _, _ = wire.MarshalRegressResultBase64(v.(*wire.RegressResult)) })
		if err != nil {
			return err
		}
	}
	o.serve += timeUS(func() { h.serve(c.path, c.soapOp, reqB) })
	return nil
}

// self is the server time the named layers do not explain.
func (o *opLayers) self() float64 { return o.serve - o.serverNamed }

// transport is the client-observed call time the client layers and the
// in-process serve time do not explain: loopback, net/http, scheduling.
func (o *opLayers) transport() float64 { return o.calls - o.client - o.serve }

// unattributed is op time outside any call and outside the workflow
// engine's own scheduling.
func (o *opLayers) unattributed() float64 { return o.op - o.calls - o.wfSelf }

// replayKinds lists every op kind the traced run replays; after the
// workload's dominant kind, this is also the order in which a per-layer
// metric looks for a kind that uses its layer.
var replayKinds = []string{"round", "compose", "classify", "batch", "warm", "train"}

// perAcquire is the median cost of one warm Acquire over the ops that
// acquired a model, 0 if none did.
func perAcquire(ops []*opLayers) float64 {
	var acq []float64
	for _, o := range ops {
		if n := o.v["acquires"]; n > 0 {
			acq = append(acq, o.v["harness.acquire_hit_us"]/n)
		}
	}
	if len(acq) == 0 {
		return 0
	}
	return median(acq)
}

// medianOf reduces one field across ops.
func medianOf(ops []*opLayers, f func(*opLayers) float64) float64 {
	var xs []float64
	for _, o := range ops {
		xs = append(xs, f(o))
	}
	return median(xs)
}

// printSelfTable prints where one op kind's time goes.
func printSelfTable(kind string, ops []*opLayers) {
	m := func(f func(*opLayers) float64) float64 { return medianOf(ops, f) }
	op := m(func(o *opLayers) float64 { return o.op })
	fmt.Printf("self time, op %q (median of %d captured ops, µs; share of op time):\n", kind, len(ops))
	row := func(name string, us float64) { fmt.Printf("  %-28s %12.1f  %6.1f%%\n", name, us, 100*us/op) }
	row("op", op)
	row("client layers", m(func(o *opLayers) float64 { return o.client }))
	row("server named layers", m(func(o *opLayers) float64 { return o.serverNamed }))
	row("services.self", m((*opLayers).self))
	row("transport", m((*opLayers).transport))
	row("workflow.self", m(func(o *opLayers) float64 { return o.wfSelf }))
	row("unattributed", m((*opLayers).unattributed))
	for _, k := range []string{"soap.decode_us", "soap.encode_us", "wire.decode_us", "wire.encode_us",
		"wire.result_encode_us", "wire.result_decode_us", "arff.parse_us", "arff.format_us",
		"classify.predict_batch_us", "classify.label_us", "classify.evaluate_us", "cluster.build_assign_us",
		"filter.apply_us", "regress.train_predict_us", "harness.acquire_hit_us"} {
		if v := m(func(o *opLayers) float64 { return o.v[k] }); v > 0 {
			row("  "+k, v)
		}
	}
}

// modelStoreLayers trains the workload's models and times the snapshot
// path on them: marshal, store Put/Get on a scratch store, unmarshal.
func modelStoreLayers(jobs []trainJob, dir string) (map[string]float64, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var train, marshal, put, get, unmarshal []float64
	for i, j := range jobs {
		t0 := time.Now()
		c, err := trainLocal(j.alg, j.d)
		if err != nil {
			return nil, err
		}
		train = append(train, float64(time.Since(t0))/1e6)
		var blob []byte
		marshal = append(marshal, timeUS(func() { blob, err = model.Marshal(c) }))
		if err != nil {
			return nil, err
		}
		key := services.InstanceKey(j.alg, nil, j.d, j.d.ClassAttribute().Name)
		t0 = time.Now()
		if err := st.Put(key, store.Meta{Algorithm: j.alg, Kind: "classifier"}, blob); err != nil {
			return nil, err
		}
		put = append(put, float64(time.Since(t0))/1e6)
		get = append(get, timeUS(func() { _, _, err = st.Get(key) }))
		if err != nil {
			return nil, err
		}
		unmarshal = append(unmarshal, timeUS(func() { _, err = model.Unmarshal(blob) }))
		if err != nil {
			return nil, fmt.Errorf("model %d: %w", i, err)
		}
	}
	return map[string]float64{
		"classify.train_ms": mean(train), "model.marshal_us": median(marshal), "store.put_ms": median(put),
		"store.get_us": median(get), "model.unmarshal_us": median(unmarshal),
	}, nil
}

// hitWaitP99 replays the train-churn warm schedule as in-process Acquires
// of one warm key on an instance cache of the deployment's size, while a
// concurrent Acquire loop builds the trainer's models, and returns the
// p99 wait (ms) measured from each Acquire's due time.
func hitWaitP99(c *churn, dur time.Duration) (float64, error) {
	b := harness.NewCachedBackend(churnCache)
	warm, err := trainLocal(c.pool[0].alg, c.pool[0].train)
	if err != nil {
		return 0, err
	}
	// Rebuilding the warm model is free, so an eviction shows as a miss
	// without adding build time of its own.
	warmBuild := func() (classify.Classifier, error) { return warm, nil }
	if _, err := b.Acquire("warm", warmBuild); err != nil {
		return 0, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			d := trainerDataset(c.seed, 1<<21+k)
			alg := trainerAlgs[k%len(trainerAlgs)]
			_, _ = b.Acquire(fmt.Sprint("fresh-", k), services.TrainBuilderContext(context.Background(), alg, nil, d))
		}
	}()
	var waits []float64
	t0 := time.Now()
	for _, a := range schedule(c.seed, churnRate, dur, []float64{1}) {
		if d := time.Until(t0.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		if _, err := b.Acquire("warm", warmBuild); err != nil {
			close(stop)
			<-done
			return 0, err
		}
		waits = append(waits, float64(time.Since(t0)-a.due)/1e6)
	}
	close(stop)
	<-done
	p, _ := tailPercentile(waits, 99)
	return p, nil
}

// tracedRun measures an untraced half window (the overhead baseline),
// then a traced half window capturing spans and envelopes, then replays
// the captured work layer by layer.
func tracedRun(ctx context.Context, w workload, e *env, srv *server, dur time.Duration,
	runDir, workDir, name string, seed int64) (result, tails, error) {
	half := max(dur/2, time.Second)
	base, err := measure(ctx, w, e, srv, half)
	if err != nil {
		return result{}, tails{}, err
	}
	tr := newTracer()
	e.tp.tr.Store(tr)
	win, err := measure(ctx, w, e, srv, half)
	e.tp.tr.Store(nil)
	if err != nil {
		return result{}, tails{}, err
	}

	spanDir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return result{}, tails{}, err
	}
	spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeSpans(spanPath); err != nil {
		return result{}, tails{}, err
	}
	fmt.Printf("spans: %d written to %s\n", tr.numSpans(), spanPath)

	var failed int64
	for _, r := range append(append([]opRecord(nil), base.recs...), win.recs...) {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "failed %s op: %v\n", r.kind, r.err)
		}
	}
	fmt.Println("untraced half window:")
	tU := latencyTails(base.recs, half)
	fmt.Println("traced half window:")
	tT := latencyTails(win.recs, half)

	h, err := newInproc(w.sessions())
	if err != nil {
		return result{}, tails{}, err
	}
	byKind := map[string][]*opLayers{}
	for _, kind := range replayKinds {
		for _, op := range tr.captured(kind) {
			o, err := h.replayOp(op)
			if err != nil {
				return result{}, tails{}, err
			}
			byKind[kind] = append(byKind[kind], o)
		}
		if ops := byKind[kind]; len(ops) > 0 {
			printSelfTable(kind, ops)
		}
	}
	v := map[string]float64{}
	// A layer's metric is read from the dominant kind's ops; a layer that
	// kind does not use is read from the first other kind that uses it.
	order := append([]string{w.dominant()}, replayKinds...)
	var borrowed []string
	for _, pl := range perLayerUnits {
		for _, kind := range order {
			ops := byKind[kind]
			if len(ops) == 0 {
				continue
			}
			x := medianOf(ops, func(o *opLayers) float64 { return o.v[pl.name] })
			if pl.name == "harness.acquire_hit_us" {
				x = perAcquire(ops)
			}
			if x != 0 {
				v[pl.name] = x
				if kind != w.dominant() {
					borrowed = append(borrowed, pl.name+" <- "+kind)
				}
				break
			}
		}
	}
	if len(borrowed) > 0 {
		fmt.Printf("per-layer metrics read from op kinds other than %q: %s\n", w.dominant(), strings.Join(borrowed, ", "))
	}
	// Attribution of op time is always the dominant kind's.
	if ops := byKind[w.dominant()]; len(ops) > 0 {
		v["services.serve_us"] = medianOf(ops, func(o *opLayers) float64 { return o.serve })
		v["services.self_us"] = medianOf(ops, (*opLayers).self)
		v["transport.us"] = medianOf(ops, (*opLayers).transport)
		v["trace.unattributed_share"] = medianOf(ops, (*opLayers).unattributed) / medianOf(ops, func(o *opLayers) float64 { return o.op })
		var live []float64
		for _, op := range tr.captured(w.dominant()) {
			live = append(live, float64(op.callDur-op.rtDur)/1e3)
		}
		v["core.client_us"] = median(live)
	}
	var wfRun, wfSelf []float64
	for _, op := range tr.captured("compose") {
		wfRun = append(wfRun, float64(op.wfRun)/1e6)
		wfSelf = append(wfSelf, float64(op.wfRun-op.wfCalls)/1e6)
		v["workflow.tasks"] = float64(op.wfTasks)
	}
	if len(wfRun) > 0 {
		v["workflow.run_ms"], v["workflow.self_ms"] = median(wfRun), median(wfSelf)
	}
	ms, err := modelStoreLayers(w.models(), filepath.Join(runDir, "storebench"))
	if err != nil {
		return result{}, tails{}, err
	}
	for k, x := range ms {
		v[k] = x
	}
	if c, ok := w.(*churn); ok {
		if v["harness.hit_wait_p99_ms"], err = hitWaitP99(c, 3*time.Second); err != nil {
			return result{}, tails{}, err
		}
	}

	d := func(name string) float64 { return float64(win.after.counter(name) - win.before.counter(name)) }
	v["harness.hits"] = d("harness_cache_hits_total")
	v["harness.restores"] = d("harness_store_restores_total")
	v["harness.builds"] = d("harness_builds_total")
	if total := v["harness.hits"] + d("harness_cache_misses_total"); total > 0 {
		v["harness.hit_ratio"] = v["harness.hits"] / total
	}
	v["store.puts"] = d("store_puts_total")
	v["store.hits"] = d("store_hits_total")
	v["store.misses"] = d("store_misses_total")
	// The server keeps one high-water mark for its whole life: set-up,
	// warm-up and the untraced half window are included.
	v["admission.inflight_peak"] = float64(win.after.gauge("admission_inflight_peak"))
	fmt.Printf("admission.inflight_peak is the server's lifetime high-water mark: %d before the traced window, %d after\n",
		win.before.gauge("admission_inflight_peak"), win.after.gauge("admission_inflight_peak"))
	v["admission.shed"] = d("admission_shed_total")
	v["runtime.gc_per_op"] = float64(win.gcLines) / float64(max(len(win.recs), 1))
	v["trace.spans"] = float64(tr.numSpans())
	v["op.untraced_p50_ms"], v["op.traced_p50_ms"] = tU.opP50, tT.opP50
	v["trace.overhead_ms"] = tT.opP50 - tU.opP50
	tU.buildP50 = median(buildLatencies(w, base.recs))
	v["op_p99_ms"], v["hit_p99_ms"], v["build_p50_ms"] = tU.opP99, tU.hitP99, tU.buildP50
	v["loadgen.lag_p99_ms"] = max(tT.lagP99, 0)
	fmt.Printf("tracing overhead: traced op p50 %.3f ms - untraced op p50 %.3f ms = %+.3f ms\n",
		tT.opP50, tU.opP50, tT.opP50-tU.opP50)

	res := result{Correct: failed == 0, Attempted: int64(len(base.recs) + len(win.recs)), Failed: failed,
		Metrics: map[string]metric{}}
	for _, pl := range perLayerUnits {
		res.Metrics[pl.name] = metric{v[pl.name], pl.unit}
	}
	return res, tU, nil
}
