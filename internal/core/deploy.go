package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/dataaccess"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/store"
	"repro/internal/workflow"
)

var coreLog = obs.L("core")

// Server timeouts. A peer gets readHeaderTimeout to send a request's
// headers, so one that connects and stalls mid-header cannot hold the
// connection and its goroutine forever; a kept-alive connection with no
// next request closes after idleTimeout. Bodies are not timed: a large
// block upload over a slow link is legitimate, and the envelope size
// cap already bounds it.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 90 * time.Second
)

// Deployment is a running instance of the toolkit's service side: every
// data-mining Web Service hosted on one HTTP server plus a UDDI-style
// registry with all of them published — the hosting role Tomcat/Axis and
// jUDDI play in the paper (§4.5, §4.6).
type Deployment struct {
	BaseURL  string
	Registry *registry.Registry
	Backend  harness.Backend

	svcNames   []string
	entries    []registry.Entry
	modelStore *store.Store
	server     *http.Server
	ln         net.Listener
	adm        *admission.Controller
	drainGrace time.Duration
	stopOnce   sync.Once
	stopErr    error
	stopBeat   chan struct{}
	beatDone   chan struct{}
	stopGC     chan struct{}
	gcDone     chan struct{}
	extClient  *registry.Client
}

// deployConfig collects the optional deployment behaviours.
type deployConfig struct {
	injector    *chaos.Injector
	heartbeat   time.Duration
	ttl         time.Duration
	externalReg string
	admission   admission.Config
	drainGrace  time.Duration
	storeDir    string
	gcInterval  time.Duration
	gcPolicy    store.GCPolicy
}

// Option configures a Deployment.
type Option func(*deployConfig)

// WithChaos injects faults into the /services/ handlers (and only them:
// /registry, /metrics and /healthz stay clean so the chaotic host can
// still be observed). A nil injector is a no-op.
func WithChaos(inj *chaos.Injector) Option {
	return func(c *deployConfig) { c.injector = inj }
}

// WithHeartbeat re-publishes every hosted service each interval — to the
// deployment's own registry and any external one — and gives the own
// registry a TTL, so entries from publishers that die disappear after ttl.
// The heartbeat also sweeps expired entries. ttl should comfortably
// exceed interval (3× is a good start).
func WithHeartbeat(interval, ttl time.Duration) Option {
	return func(c *deployConfig) { c.heartbeat = interval; c.ttl = ttl }
}

// WithExternalRegistry additionally publishes every hosted service to the
// shared registry at baseURL — the paper's central jUDDI node — so
// several dmservers become discoverable alternates for the same service
// names. Entries are withdrawn on Close.
func WithExternalRegistry(baseURL string) Option {
	return func(c *deployConfig) { c.externalReg = baseURL }
}

// WithAdmission tunes the deployment's admission control (it is always
// on; without this option the admission.Config defaults apply):
// maxInFlight concurrently executing SOAP requests, maxQueue more
// waiting, everything beyond shed with a retryable ServerBusy fault.
func WithAdmission(maxInFlight, maxQueue int) Option {
	return func(c *deployConfig) {
		c.admission.MaxInFlight = maxInFlight
		c.admission.MaxQueue = maxQueue
	}
}

// WithDrainGrace bounds how long Close waits for in-flight requests
// after it stops admitting; <=0 means 10s.
func WithDrainGrace(d time.Duration) Option {
	return func(c *deployConfig) { c.drainGrace = d }
}

// WithModelStore opens (or creates) a content-addressed model store in dir
// and wires it under the deployment's harness as the durable snapshot
// tier: freshly trained models are persisted, and a memory miss restores
// from disk instead of retraining. Point several dmservers at the same
// directory and session tokens become resumable on any of them — the
// store is the replicas' shared model memory. Requires a CachedBackend
// (the default); other backends ignore the store.
func WithModelStore(dir string) Option {
	return func(c *deployConfig) { c.storeDir = dir }
}

// WithStoreGC runs a background garbage-collection sweep over the model
// store every interval: when the policy says the store owes a compaction
// (dead bytes, dead fraction, or record age), the sweep rewrites live
// records into fresh segments and reclaims the rest. Sweeps that find
// another replica compacting skip the tick instead of blocking. Requires
// WithModelStore; a zero interval or a never-triggering policy disables
// the sweep.
func WithStoreGC(interval time.Duration, pol store.GCPolicy) Option {
	return func(c *deployConfig) { c.gcInterval = interval; c.gcPolicy = pol }
}

// Deploy starts all toolkit services on addr (use "127.0.0.1:0" for an
// ephemeral port). backend selects the §4.5 instance-management strategy;
// nil defaults to the paper's in-memory harness.
func Deploy(addr string, backend harness.Backend, opts ...Option) (*Deployment, error) {
	var cfg deployConfig
	for _, o := range opts {
		o(&cfg)
	}
	if backend == nil {
		backend = harness.NewCachedBackend(64)
	}
	var modelStore *store.Store
	if cfg.storeDir != "" {
		cached, ok := backend.(*harness.CachedBackend)
		if !ok {
			return nil, fmt.Errorf("core: WithModelStore needs a *harness.CachedBackend, got %T", backend)
		}
		s, err := store.Open(cfg.storeDir)
		if err != nil {
			return nil, fmt.Errorf("core: opening model store: %w", err)
		}
		cached.Durable = s
		modelStore = s
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if modelStore != nil {
			modelStore.Close()
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	baseURL := "http://" + ln.Addr().String()
	reg := registry.New()
	if cfg.ttl > 0 {
		reg = registry.NewWithTTL(cfg.ttl)
	}
	adm := admission.NewController(cfg.admission)
	mux := http.NewServeMux()
	mux.Handle("/registry/", http.StripPrefix("/registry", reg.Handler()))
	// Observability endpoints: process metrics as JSON and a liveness
	// probe that flips to "draining" the moment Close stops admitting,
	// so health-checking pools eject this host before it goes away.
	mux.Handle("/metrics", obs.Default.Handler())
	mux.Handle("/healthz", obs.HealthHandlerStatus(adm.HealthStatus))

	// The relational resource behind the DataAccess service (the OGSA-DAI
	// integration of §5.4) ships with the toolkit's embedded datasets.
	db := dataaccess.NewDatabase()
	for name, table := range map[string]*dataset.Dataset{
		"breast_cancer":  datagen.BreastCancer(),
		"weather":        datagen.WeatherNumeric(),
		"contact_lenses": datagen.ContactLenses(),
	} {
		if err := db.CreateTable(name, table); err != nil {
			ln.Close()
			return nil, err
		}
	}
	svcs := []*services.Service{
		services.NewClassifierService(backend),
		services.NewJ48Service(backend),
		services.NewClustererService(),
		services.NewCobwebService(),
		services.NewAssociationService(),
		services.NewAttributeSelectionService(),
		services.NewDataConvertService(nil),
		services.NewFilterService(),
		services.NewRegressorService(),
		services.NewDataAccessService(db),
		services.NewSessionService(backend),
		services.NewPlotService(),
		services.NewMathService(),
		services.NewTreeAnalyzerService(),
	}
	// Services live on their own sub-mux so admission and chaos wrap
	// them alone: the registry and observability endpoints stay clean
	// and ungated. Admission sits outermost — a shed request must cost
	// nothing, not even an injected chaos delay.
	svcMux := http.NewServeMux()
	services.Host(svcMux, baseURL, svcs...)
	mux.Handle("/services/", adm.Wrap(cfg.injector.Wrap(svcMux)))

	drainGrace := cfg.drainGrace
	if drainGrace <= 0 {
		drainGrace = 10 * time.Second
	}
	d := &Deployment{BaseURL: baseURL, Registry: reg, Backend: backend, ln: ln,
		modelStore: modelStore, adm: adm, drainGrace: drainGrace}
	if cfg.externalReg != "" {
		d.extClient = &registry.Client{BaseURL: cfg.externalReg, Policy: &resilience.Policy{}}
	}
	for _, s := range svcs {
		d.svcNames = append(d.svcNames, s.Name)
		d.entries = append(d.entries, d.entryFor(s.Name, s.Category, s.Description()))
	}
	for _, e := range d.entries {
		if err := d.publishOne(e); err != nil {
			ln.Close()
			return nil, err
		}
	}
	d.server = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = d.server.Serve(ln) }()
	if cfg.heartbeat > 0 {
		d.stopBeat = make(chan struct{})
		d.beatDone = make(chan struct{})
		go d.heartbeatLoop(cfg.heartbeat)
	}
	if modelStore != nil && cfg.gcInterval > 0 {
		d.stopGC = make(chan struct{})
		d.gcDone = make(chan struct{})
		go d.storeGCLoop(cfg.gcInterval, cfg.gcPolicy)
	}
	return d, nil
}

// storeGCLoop is the background retention sweep started by WithStoreGC.
func (d *Deployment) storeGCLoop(interval time.Duration, pol store.GCPolicy) {
	defer close(d.gcDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopGC:
			return
		case <-ticker.C:
			st, ran, err := d.modelStore.MaybeCompact(pol)
			if err != nil {
				coreLog.Warn(nil, "store_gc_failed", "err", err)
				obs.Default.Counter("core_store_gc_errors_total").Inc()
				continue
			}
			if ran {
				coreLog.Info(nil, "store_gc_compacted",
					"generation", st.Generation,
					"reclaimed_bytes", st.ReclaimedBytes,
					"live_records", st.LiveRecords,
					"expired", st.ExpiredRecords,
					"ms", st.Duration.Milliseconds())
			}
		}
	}
}

// entryFor builds the registry entry of a hosted service.
func (d *Deployment) entryFor(name, category, description string) registry.Entry {
	return registry.Entry{
		Name:        name,
		Category:    category,
		WSDLURL:     d.WSDLURL(name),
		Endpoint:    d.EndpointURL(name),
		Description: description,
	}
}

// publishOne publishes a service entry to the deployment's own registry
// and, if configured, the external one. External-registry failures are
// logged, not fatal: the heartbeat keeps trying, so a registry that boots
// late still learns about this host.
func (d *Deployment) publishOne(e registry.Entry) error {
	if err := d.Registry.Publish(e); err != nil {
		return err
	}
	if d.extClient != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.extClient.PublishContext(ctx, e); err != nil {
			coreLog.Warn(nil, "external_publish_failed", "service", e.Name, "err", err)
			obs.Default.Counter("core_external_publish_errors_total").Inc()
		}
	}
	return nil
}

// heartbeatLoop re-publishes every service each interval (the liveness
// signal a TTL registry needs) and sweeps the own registry's expired
// entries. It runs until Close.
func (d *Deployment) heartbeatLoop(interval time.Duration) {
	defer close(d.beatDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopBeat:
			return
		case <-ticker.C:
			for _, e := range d.entries {
				_ = d.publishOne(e)
			}
			d.Registry.Sweep()
			obs.Default.Counter("core_heartbeats_total").Inc()
		}
	}
}

// ServiceNames lists the deployed services.
func (d *Deployment) ServiceNames() []string {
	return append([]string(nil), d.svcNames...)
}

// EndpointURL returns the SOAP endpoint of a deployed service.
func (d *Deployment) EndpointURL(service string) string {
	return d.BaseURL + "/services/" + service
}

// WSDLURL returns the WSDL document URL of a deployed service (the GET side
// of the endpoint).
func (d *Deployment) WSDLURL(service string) string {
	return d.EndpointURL(service)
}

// RegistryURL returns the base URL of the deployment's registry.
func (d *Deployment) RegistryURL() string { return d.BaseURL + "/registry" }

// Admission exposes the deployment's admission controller (state,
// in-flight count) for probes and tests.
func (d *Deployment) Admission() *admission.Controller { return d.adm }

// ModelStore exposes the deployment's durable snapshot store (nil unless
// WithModelStore was given) for inspection and the failover drill's
// per-replica hit assertions.
func (d *Deployment) ModelStore() *store.Store { return d.modelStore }

// Close shuts the deployment down gracefully, in the order that keeps
// clients from ever dialling a dead endpoint: stop heartbeating and
// withdraw the registry entries first (so pools refreshing from a
// registry stop discovering this host), then stop admitting — /healthz
// reports "draining" from this point — let in-flight requests finish
// within the drain grace period, and only then close the HTTP server.
func (d *Deployment) Close() error {
	d.stopOnce.Do(func() {
		if d.stopBeat != nil {
			close(d.stopBeat)
			<-d.beatDone
		}
		if d.stopGC != nil {
			close(d.stopGC)
			<-d.gcDone
		}
		withdrawCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for _, e := range d.entries {
			d.Registry.RemoveEndpoint(e.Name, e.Endpoint)
			if d.extClient != nil {
				if err := d.extClient.RemoveContext(withdrawCtx, e.Name, e.Endpoint); err != nil {
					coreLog.Warn(nil, "external_remove_failed", "service", e.Name, "err", err)
				}
			}
		}
		cancel()
		drainCtx, cancel := context.WithTimeout(context.Background(), d.drainGrace)
		if err := d.adm.Drain(drainCtx); err != nil {
			coreLog.Warn(nil, "drain_grace_expired", "err", err)
		}
		cancel()
		d.adm.Stop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.stopErr = d.server.Shutdown(shutCtx)
		if d.modelStore != nil {
			if err := d.modelStore.Close(); err != nil && d.stopErr == nil {
				d.stopErr = err
			}
		}
	})
	return d.stopErr
}

// BuildCaseStudyWorkflow composes the §5 case-study workflow of Figure 1
// against a deployment: getClassifiers → ClassifierSelector → getOptions →
// OptionSelector, a LocalDataset and an AttributeSelector feeding the
// four inputs of classifyInstance, whose model flows into the TreeViewer.
// It returns the graph and the viewer capturing the final tree.
func BuildCaseStudyWorkflow(tk *Toolkit, d *Deployment, arffText, classifierChoice, attribute string) (*workflow.Graph, *workflow.ViewerUnit, error) {
	// Import the Classifier service's WSDL unless its tools are already in
	// the toolbox.
	if _, err := tk.NewUnit("Classifier.getClassifiers"); err != nil {
		if _, err := tk.ImportWSDL(d.WSDLURL("Classifier")); err != nil {
			return nil, nil, err
		}
	}
	g := workflow.NewGraph("case-study")

	getClassifiers, err := tk.NewUnit("Classifier.getClassifiers")
	if err != nil {
		return nil, nil, err
	}
	getOptions, err := tk.NewUnit("Classifier.getOptions")
	if err != nil {
		return nil, nil, err
	}
	classifyInstance, err := tk.NewUnit("Classifier.classifyInstance")
	if err != nil {
		return nil, nil, err
	}
	selector, err := tk.NewUnit("ClassifierSelector")
	if err != nil {
		return nil, nil, err
	}
	optionSel, err := tk.NewUnit("OptionSelector")
	if err != nil {
		return nil, nil, err
	}
	localData, err := tk.NewUnit("LocalDataset")
	if err != nil {
		return nil, nil, err
	}
	attrSel, err := tk.NewUnit("AttributeSelector")
	if err != nil {
		return nil, nil, err
	}
	viewerUnit, err := tk.NewUnit("TreeViewer")
	if err != nil {
		return nil, nil, err
	}
	viewer, ok := viewerUnit.(*workflow.ViewerUnit)
	if !ok {
		return nil, nil, fmt.Errorf("core: TreeViewer tool is not a viewer")
	}
	viewer.Port = "model"

	g.MustAdd("getClassifiers", getClassifiers)
	sel := g.MustAdd("selectClassifier", selector)
	sel.Params["choice"] = classifierChoice
	g.MustAdd("getOptions", getOptions)
	g.MustAdd("selectOptions", optionSel)
	data := g.MustAdd("localDataset", localData)
	data.Params["arff"] = arffText
	attr := g.MustAdd("selectAttribute", attrSel)
	attr.Params["choice"] = attribute
	g.MustAdd("classify", classifyInstance)
	g.MustAdd("treeViewer", viewer)

	// Stage 1: pick the algorithm from the service's list.
	g.MustConnect("getClassifiers", "classifiers", "selectClassifier", "classifiers")
	// Stage 2: fetch and select its options.
	g.MustConnect("selectClassifier", "classifier", "getOptions", "classifier")
	g.MustConnect("getOptions", "options", "selectOptions", "options")
	// Stage 3: wire the four classifyInstance inputs.
	g.MustConnect("localDataset", "dataset", "classify", "dataset")
	g.MustConnect("localDataset", "dataset", "selectAttribute", "dataset")
	// The classifier name needs to reach both getOptions and classify; a
	// second cable from the selector is not allowed into the same port, so
	// classify receives it via its own cable.
	g.MustConnect("selectOptions", "selected", "classify", "options")
	g.MustConnect("selectAttribute", "attribute", "classify", "attribute")
	// Stage 4: view the resulting model.
	g.MustConnect("classify", "model", "treeViewer", "model")

	// classifier name: selector output feeds classify.classifier too.
	if err := g.Connect("selectClassifier", "classifier", "classify", "classifier"); err != nil {
		return nil, nil, err
	}
	return g, viewer, nil
}
