package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/arff"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/regress"
	"repro/internal/services"
	"repro/internal/workflow"
)

// workload is one benchmark scenario against a live dmserver. Inputs and
// the oracle's references are built from the seed when the workload is
// constructed; setup and warmup run against each freshly started server;
// run drives one timed window.
type workload interface {
	serverFlags() []string
	setup(ctx context.Context, e *env) error
	warmup(ctx context.Context, e *env) error
	run(ctx context.Context, e *env, dur time.Duration) []opRecord
	// dominant names the op kind the per-layer attribution explains.
	dominant() string
	// limit is the latency within which an op counts toward goodput.
	limit() time.Duration
	// probes returns the fresh-key createSession latencies setup
	// measured, for workloads whose window has no trainer (nil otherwise).
	probes() []float64
	// models lists what the workload trains, for the model-store and
	// training replays of the traced run.
	models() []trainJob
	// sessions lists the sessions setup creates, for the traced run's
	// in-process replays.
	sessions() []trainJob
}

// trainJob is one model a workload trains: algorithm and dataset.
type trainJob struct {
	alg string
	d   *dataset.Dataset
}

var workloadNames = []string{"bulk-blocks", "interactive-compose", "train-churn"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "bulk-blocks":
		return newBulk(seed)
	case "interactive-compose":
		return newInteractive(seed)
	case "train-churn":
		return newChurn(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// head returns a dataset holding the first n rows of d.
func head(d *dataset.Dataset, n int) *dataset.Dataset {
	out := d.CloneSchema()
	for _, in := range d.Instances[:n] {
		out.MustAdd(in.Clone())
	}
	return out
}

// traceCall runs one client-library call under a call span and the
// per-call timeout.
func traceCall[T any](ctx context.Context, e *env, name string, f func(context.Context) (T, error)) (T, error) {
	ctx, end := e.tracer().call(ctx, name)
	defer end()
	ctx, cancel := withTimeout(ctx)
	defer cancel()
	return f(ctx)
}

// trainerDataset is the i-th fresh training set of a seed: every index
// gives a dataset, and so a model-store key, of its own.
func trainerDataset(seed int64, i int) *dataset.Dataset {
	return datagen.RandomNominal(300, 10, 3, 0.1, seed*1_000_003+int64(i)+1)
}

// createFresh runs createSession on trainerDataset(seed, i) and checks
// the session's key against the locally derived content key.
func createFresh(ctx context.Context, e *env, alg string, seed int64, i int) opResult {
	d := trainerDataset(seed, i)
	tok, err := traceCall(ctx, e, "core.CreateSession", func(ctx context.Context) (string, error) {
		return e.client.CreateSession(ctx, core.TrainOptions{Dataset: d, Classifier: alg})
	})
	if err == nil {
		err = checkToken(tok, services.InstanceKey(alg, nil, d, d.ClassAttribute().Name))
	}
	return opResult{err: err, rows: d.NumInstances(), build: true}
}

// probeBase offsets the setup build probes' dataset indices from the
// trainer's.
const (
	probeBase  = 1 << 20
	probeCount = 12
)

// runProbes measures probeCount fresh-key J48 createSessions, on the
// trainer datasets following the first `done` probes.
func runProbes(ctx context.Context, e *env, seed int64, done int) ([]float64, error) {
	var out []float64
	for k := 0; k < probeCount; k++ {
		t0 := time.Now()
		if r := createFresh(ctx, e, "J48", seed, probeBase+done+k); r.err != nil {
			return nil, r.err
		}
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// bulk-blocks: closed loop, 2 clients, each repeating a round of
// ClassifyBatch → FilterBatch → FilterBatch → ClusterBatch → RegressBatch
// over 1024-row dmb1 blocks.

const (
	bulkRows   = 1024
	bulkBlocks = 4
)

var kmeansOptions = map[string]string{"k": "4", "seed": "1"}

type bulk struct {
	seed     int64
	train    *dataset.Dataset
	token    string
	cls      []*dataset.Dataset
	clsWant  []prediction
	gauss    []*dataset.Dataset
	rmvWant  []*dataset.Dataset
	normWant []*dataset.Dataset
	clWant   [][]int
	regTrain *dataset.Dataset
	reg      []*dataset.Dataset
	regWant  [][]float64
	probeMS  []float64
}

func newBulk(seed int64) (*bulk, error) {
	b := &bulk{seed: seed, train: datagen.IrisLike(100, seed)}
	model, err := trainLocal("J48", b.train)
	if err != nil {
		return nil, err
	}
	b.regTrain = datagen.IrisLike(67, seed+21)
	b.regTrain.ClassIndex = 3 // petalwidth
	lr, err := regress.New("LinearRegression")
	if err != nil {
		return nil, err
	}
	if err := lr.Train(b.regTrain); err != nil {
		return nil, err
	}
	for i := int64(0); i < bulkBlocks; i++ {
		c := head(datagen.IrisLike(342, seed+1+i), bulkRows)
		want, err := predict(model, c)
		if err != nil {
			return nil, err
		}
		b.cls, b.clsWant = append(b.cls, c), append(b.clsWant, want)

		g := datagen.GaussianClusters(4, bulkRows, 8, 3, seed+11+i)
		rng := rand.New(rand.NewSource(seed + 31 + i))
		for _, in := range g.Instances {
			for j := 0; j < g.ClassIndex; j++ {
				if rng.Float64() < 0.02 {
					in.Values[j] = dataset.Missing
				}
			}
		}
		g.InvalidateColumns()
		rmv, err := filter.ApplyColumns(filter.ReplaceMissing{}, g)
		if err != nil {
			return nil, err
		}
		norm, err := filter.ApplyColumns(filter.Normalize{}, rmv)
		if err != nil {
			return nil, err
		}
		assign, err := kmeansAssign(norm)
		if err != nil {
			return nil, err
		}
		b.gauss = append(b.gauss, g)
		b.rmvWant, b.normWant, b.clWant = append(b.rmvWant, rmv), append(b.normWant, norm), append(b.clWant, assign)

		r := head(datagen.IrisLike(342, seed+41+i), bulkRows)
		r.ClassIndex = 3
		vals, err := regress.PredictBatch(lr, r)
		if err != nil {
			return nil, err
		}
		b.reg, b.regWant = append(b.reg, r), append(b.regWant, vals)
	}
	return b, nil
}

// kmeansAssign builds SimpleKMeans with kmeansOptions on d and assigns
// every row, as the clusterBatch service does.
func kmeansAssign(d *dataset.Dataset) ([]int, error) {
	c, err := cluster.New("SimpleKMeans")
	if err != nil {
		return nil, err
	}
	for k, v := range kmeansOptions {
		if err := c.(cluster.Parameterized).SetOption(k, v); err != nil {
			return nil, err
		}
	}
	if err := cluster.BuildWith(context.Background(), c, d); err != nil {
		return nil, err
	}
	assign, _, _, err := cluster.AssignAll(c, d)
	return assign, err
}

func (b *bulk) serverFlags() []string { return nil }
func (b *bulk) dominant() string      { return "round" }
func (b *bulk) limit() time.Duration  { return 2 * time.Second }
func (b *bulk) probes() []float64     { return b.probeMS }
func (b *bulk) models() []trainJob    { return []trainJob{{"J48", b.train}} }
func (b *bulk) sessions() []trainJob  { return b.models() }

func (b *bulk) setup(ctx context.Context, e *env) error {
	tok, err := e.client.CreateSession(ctx, core.TrainOptions{Dataset: b.train, Classifier: "J48"})
	if err != nil {
		return err
	}
	b.token = tok
	p, err := runProbes(ctx, e, b.seed, len(b.probeMS))
	b.probeMS = append(b.probeMS, p...)
	return err
}

func (b *bulk) warmup(ctx context.Context, e *env) error {
	for i := 0; i < 2*bulkBlocks; i++ {
		if r := b.round(ctx, e, i%bulkBlocks); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (b *bulk) run(ctx context.Context, e *env, dur time.Duration) []opRecord {
	return runClosed(ctx, time.Now(), dur, maxWorkers, "round", func(ctx context.Context, w, iter int) opResult {
		return b.round(ctx, e, int((b.seed+int64(w)+int64(iter)*3)%bulkBlocks))
	})
}

// round runs the five hops on block set i and checks every reply.
func (b *bulk) round(ctx context.Context, e *env, i int) opResult {
	ctx, done := e.tracer().startOp(ctx, "round")
	defer done()
	rows := 5*bulkRows + b.regTrain.NumInstances()
	t0 := time.Now()
	labels, err := traceCall(ctx, e, "core.ClassifyBatch", func(ctx context.Context) ([]core.Label, error) {
		return e.client.ClassifyBatch(ctx, b.token, dataset.All(b.cls[i]))
	})
	if err == nil {
		err = checkLabels(labels, b.clsWant[i])
	}
	if err != nil {
		return opResult{err: err}
	}
	res := opResult{rows: rows, warmHop: time.Since(t0)}

	rmv, err := traceCall(ctx, e, "core.FilterBatch", func(ctx context.Context) (*core.FilterBatchResult, error) {
		return e.client.FilterBatch(ctx, core.FilterBatchOptions{Dataset: b.gauss[i], Filter: "ReplaceMissingValues"})
	})
	if err == nil {
		err = checkDataset(rmv.Dataset, b.rmvWant[i])
	}
	if err != nil {
		return opResult{err: err}
	}
	norm, err := traceCall(ctx, e, "core.FilterBatch", func(ctx context.Context) (*core.FilterBatchResult, error) {
		return e.client.FilterBatch(ctx, core.FilterBatchOptions{Payload: rmv.Payload, Filter: "Normalize"})
	})
	if err == nil {
		err = checkDataset(norm.Dataset, b.normWant[i])
	}
	if err != nil {
		return opResult{err: err}
	}
	cl, err := traceCall(ctx, e, "core.ClusterBatch", func(ctx context.Context) (*core.ClusterBatchResult, error) {
		return e.client.ClusterBatch(ctx, core.ClusterBatchOptions{Batch: norm.Dataset, Clusterer: "SimpleKMeans", Options: kmeansOptions})
	})
	if err == nil {
		err = checkInts("assignments", cl.Assignments, b.clWant[i])
	}
	if err != nil {
		return opResult{err: err}
	}
	rg, err := traceCall(ctx, e, "core.RegressBatch", func(ctx context.Context) (*core.RegressBatchResult, error) {
		return e.client.RegressBatch(ctx, core.RegressBatchOptions{Train: b.regTrain, Batch: b.reg[i],
			Regressor: "LinearRegression", Target: "petalwidth"})
	})
	if err == nil {
		err = checkFloats("values", rg.Values, b.regWant[i])
	}
	if err != nil {
		return opResult{err: err}
	}
	return res
}

// ---------------------------------------------------------------------
// interactive-compose: open loop at a fixed rate mixing the paper's
// Figure-1 case-study composition with small session classify and
// classifyBatch requests.

const (
	// interactiveRate is the offered load, ops/s: about a sixth of the
	// ~900 ops/s saturation throughput measured on a 2-core host. Half of
	// saturation left no headroom when neighbours on a shared host took
	// CPU time (see README).
	interactiveRate = 150
	interactivePool = 64
)

var (
	interactiveKinds   = []string{"compose", "classify", "batch"}
	interactiveWeights = []float64{0.2, 0.4, 0.4}
)

type interactive struct {
	seed     int64
	bc       *dataset.Dataset
	bcARFF   string
	wantTree string
	token    string
	inst     []*dataset.Dataset
	instWant [][]string
	batch    []*dataset.Dataset
	batchWnt []prediction
	tk       [maxWorkers]*core.Toolkit
	probeMS  []float64
}

func newInteractive(seed int64) (*interactive, error) {
	x := &interactive{seed: seed, bc: datagen.BreastCancer()}
	x.bcARFF = arff.Format(x.bc)
	model, err := trainLocal("J48", x.bc)
	if err != nil {
		return nil, err
	}
	x.wantTree = model.(fmt.Stringer).String()
	rng := rand.New(rand.NewSource(seed))
	// Request sizes cycle through 1..max over the pool, so every seed
	// offers the same sizes; the rows themselves are drawn from the seed.
	sample := func(n int) *dataset.Dataset {
		d := x.bc.CloneSchema()
		for ; n > 0; n-- {
			d.MustAdd(x.bc.Instances[rng.Intn(x.bc.NumInstances())].Clone())
		}
		return d
	}
	for i := 0; i < interactivePool; i++ {
		d := sample(1 + i%8)
		labels, err := classify.Label(model, d)
		if err != nil {
			return nil, err
		}
		x.inst, x.instWant = append(x.inst, d), append(x.instWant, labels)
		bd := sample(1 + i%16)
		want, err := predict(model, bd)
		if err != nil {
			return nil, err
		}
		x.batch, x.batchWnt = append(x.batch, bd), append(x.batchWnt, want)
	}
	return x, nil
}

func (x *interactive) serverFlags() []string { return nil }
func (x *interactive) dominant() string      { return "compose" }
func (x *interactive) limit() time.Duration  { return time.Second }
func (x *interactive) probes() []float64     { return x.probeMS }
func (x *interactive) models() []trainJob    { return []trainJob{{"J48", x.bc}} }
func (x *interactive) sessions() []trainJob  { return x.models() }

func (x *interactive) setup(ctx context.Context, e *env) error {
	tok, err := e.client.CreateSession(ctx, core.TrainOptions{Dataset: x.bc, Classifier: "J48"})
	if err != nil {
		return err
	}
	x.token = tok
	for w := range x.tk {
		x.tk[w] = core.NewToolkit()
		if _, err := x.tk[w].ImportWSDL(e.base + "/services/Classifier"); err != nil {
			return err
		}
	}
	p, err := runProbes(ctx, e, x.seed, len(x.probeMS))
	x.probeMS = append(x.probeMS, p...)
	return err
}

func (x *interactive) warmup(ctx context.Context, e *env) error {
	for i := 0; i < 30; i++ {
		if r := x.op(ctx, e, 0, arrival{kind: i % 3, pick: i}); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (x *interactive) run(ctx context.Context, e *env, dur time.Duration) []opRecord {
	sched := schedule(x.seed, interactiveRate, dur, interactiveWeights)
	return runOpen(ctx, time.Now(), sched, maxWorkers, interactiveKinds, func(ctx context.Context, w int, a arrival) opResult {
		return x.op(ctx, e, w, a)
	})
}

func (x *interactive) op(ctx context.Context, e *env, w int, a arrival) opResult {
	ctx, done := e.tracer().startOp(ctx, interactiveKinds[a.kind])
	defer done()
	i := a.pick % interactivePool
	switch a.kind {
	case 0:
		return x.compose(ctx, e, w)
	case 1:
		labels, err := traceCall(ctx, e, "core.Classify", func(ctx context.Context) ([]string, error) {
			return e.client.Classify(ctx, x.token, x.inst[i])
		})
		if err == nil {
			err = checkNames(labels, x.instWant[i])
		}
		return opResult{err: err, rows: x.inst[i].NumInstances(), warm: true}
	default:
		labels, err := traceCall(ctx, e, "core.ClassifyBatch", func(ctx context.Context) ([]core.Label, error) {
			return e.client.ClassifyBatch(ctx, x.token, dataset.All(x.batch[i]))
		})
		if err == nil {
			err = checkLabels(labels, x.batchWnt[i])
		}
		return opResult{err: err, rows: x.batch[i].NumInstances(), warm: true}
	}
}

// compose builds and runs the case-study graph through the engine and
// checks the tree its viewer captured.
func (x *interactive) compose(ctx context.Context, e *env, w int) opResult {
	g, viewer, err := core.BuildCaseStudyWorkflow(x.tk[w], &core.Deployment{BaseURL: e.base}, x.bcARFF, "J48", "Class")
	if err != nil {
		return opResult{err: err}
	}
	for _, id := range g.Tasks() {
		if u, ok := g.Task(id).Unit.(*workflow.SOAPUnit); ok {
			u.Client = e.soap
		}
	}
	tr := e.tracer()
	runCtx := ctx
	var coll *obs.Collector
	if tr != nil {
		coll = obs.NewCollector()
		runCtx = obs.ContextWithCollector(ctx, coll)
	}
	runCtx, cancel := withTimeout(runCtx)
	defer cancel()
	t0 := time.Now()
	_, err = workflow.NewEngine().Run(runCtx, g)
	run := time.Since(t0)
	if tr != nil {
		calls := tr.addSOAPClientSpans(ctx, coll.Spans())
		if op := opOf(ctx); op != nil {
			op.wfRun, op.wfCalls, op.wfTasks = run, calls, len(g.Tasks())
		}
	}
	if err == nil {
		err = checkTree(viewer.Seen(), x.wantTree)
	}
	return opResult{err: err, rows: x.bc.NumInstances()}
}

// ---------------------------------------------------------------------
// train-churn: open-loop warm ClassifyBatch traffic over a session pool
// larger than the server's instance cache, beside one closed-loop
// trainer creating sessions on fresh datasets.

const (
	churnPool      = 24
	churnCache     = 8
	churnRate      = 45
	churnBlockRows = 64
	churnBlocks    = 8
)

// trainerAlgs is the trainer's cycle. Two J48 builds per RandomForest
// build keep the build-latency median inside one algorithm's mode.
var trainerAlgs = []string{"J48", "J48", "RandomForest"}

type churnSession struct {
	alg   string
	train *dataset.Dataset
	token string
}

type churn struct {
	seed    int64
	pool    []churnSession
	blocks  []*dataset.Dataset
	want    [][]prediction // [session][block]
	trainer atomic.Int64
}

func newChurn(seed int64) (*churn, error) {
	c := &churn{seed: seed}
	for b := int64(0); b < churnBlocks; b++ {
		c.blocks = append(c.blocks, head(datagen.IrisLike(22, seed+500+b), churnBlockRows))
	}
	for i := 0; i < churnPool; i++ {
		alg := "J48"
		if i%2 == 1 {
			alg = "NaiveBayes"
		}
		s := churnSession{alg: alg, train: datagen.IrisLike(40, seed*100+int64(i))}
		m, err := trainLocal(alg, s.train)
		if err != nil {
			return nil, err
		}
		var wants []prediction
		for _, blk := range c.blocks {
			p, err := predict(m, blk)
			if err != nil {
				return nil, err
			}
			wants = append(wants, p)
		}
		c.pool, c.want = append(c.pool, s), append(c.want, wants)
	}
	return c, nil
}

func (c *churn) serverFlags() []string { return []string{"-cache", fmt.Sprint(churnCache)} }
func (c *churn) dominant() string      { return "warm" }
func (c *churn) limit() time.Duration  { return 3 * time.Second }
func (c *churn) probes() []float64     { return nil }

func (c *churn) sessions() []trainJob {
	var out []trainJob
	for _, s := range c.pool {
		out = append(out, trainJob{s.alg, s.train})
	}
	return out
}

func (c *churn) models() []trainJob {
	var out []trainJob
	for i := 0; i < 2*len(trainerAlgs); i++ {
		out = append(out, trainJob{trainerAlgs[i%len(trainerAlgs)], trainerDataset(c.seed, probeBase+i)})
	}
	return out
}

func (c *churn) setup(ctx context.Context, e *env) error {
	for i := range c.pool {
		tok, err := e.client.CreateSession(ctx, core.TrainOptions{Dataset: c.pool[i].train, Classifier: c.pool[i].alg})
		if err != nil {
			return err
		}
		c.pool[i].token = tok
	}
	return nil
}

func (c *churn) warmup(ctx context.Context, e *env) error {
	for i := 0; i < churnPool; i++ {
		if r := c.warm(ctx, e, i+churnPool*(i%churnBlocks)); r.err != nil {
			return r.err
		}
	}
	return nil
}

func (c *churn) run(ctx context.Context, e *env, dur time.Duration) []opRecord {
	t0 := time.Now()
	sched := schedule(c.seed, churnRate, dur, []float64{1})
	var trained []opRecord
	done := make(chan struct{})
	go func() {
		defer close(done)
		trained = runClosed(ctx, t0, dur, 1, "train", func(ctx context.Context, _, _ int) opResult {
			k := int(c.trainer.Add(1) - 1)
			ctx, end := e.tracer().startOp(ctx, "train")
			defer end()
			return createFresh(ctx, e, trainerAlgs[k%len(trainerAlgs)], c.seed, k)
		})
	}()
	recs := runOpen(ctx, t0, sched, maxWorkers-1, []string{"warm"}, func(ctx context.Context, _ int, a arrival) opResult {
		return c.warm(ctx, e, a.pick)
	})
	<-done
	return append(recs, trained...)
}

// warm scores one 64-row block on one pool session.
func (c *churn) warm(ctx context.Context, e *env, pick int) opResult {
	ctx, done := e.tracer().startOp(ctx, "warm")
	defer done()
	s, b := pick%churnPool, (pick/churnPool)%churnBlocks
	labels, err := traceCall(ctx, e, "core.ClassifyBatch", func(ctx context.Context) ([]core.Label, error) {
		return e.client.ClassifyBatch(ctx, c.pool[s].token, dataset.All(c.blocks[b]))
	})
	if err == nil {
		err = checkLabels(labels, c.want[s][b])
	}
	return opResult{err: err, rows: churnBlockRows, warm: true}
}
