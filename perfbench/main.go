// Command perfbench is the repository benchmark: it starts a real
// dmserver, drives one workload against it through the public client
// library, checks every reply against a locally computed reference and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ones)
// as one JSON object on the last line of standard output.
//
// It is normally started through run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload bulk-blocks --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// setups is how many times a run starts a server and sets it up; setup_s
// is their median. The last set-up server is the one measured.
const setups = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type phaseReport struct {
	Sent      int64 `json:"sent"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
}

func report(p *phaseCount) phaseReport {
	return phaseReport{Sent: p.sent.Load(), Succeeded: p.ok.Load(), Failed: p.failed.Load()}
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window, seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	serverBin := flag.String("server", "", "dmserver binary")
	workDir := flag.String("work", ".bench_build", "directory for server stores, logs and span files")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traceFlag == 1, *serverBin, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// window is what one timed window measured.
type window struct {
	dur       time.Duration // the configured length
	recs      []opRecord
	elapsed   time.Duration
	serverCPU float64 // ms
	clientCPU float64 // ms
	before    metricsSnapshot
	after     metricsSnapshot
	gcLines   int
	// stealShare is the share of host CPU time stolen by the hypervisor
	// during the window: a noisy-neighbour gauge for reading the numbers.
	stealShare float64
}

func measure(ctx context.Context, w workload, e *env, srv *server, dur time.Duration) (*window, error) {
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	s0, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	c0, log0 := selfCPUms(), srv.logSize()
	h0, st0 := hostCPU()
	t0 := time.Now()
	recs := w.run(ctx, e, dur)
	elapsed := time.Since(t0)
	s1, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	c1 := selfCPUms()
	h1, st1 := hostCPU()
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	return &window{dur: dur, recs: recs, elapsed: elapsed, serverCPU: s1 - s0, clientCPU: c1 - c0,
		before: before, after: after, gcLines: srv.countGCLines(log0),
		stealShare: float64(st1-st0) / float64(max(h1-h0, 1))}, nil
}

func run(name string, seed int64, seconds int, traced bool, serverBin, workDir string) error {
	if serverBin == "" {
		return fmt.Errorf("-server is required")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	// The client library logs every call at info level; the benchmark's
	// output is its report, so the client side stays quiet.
	obs.SetDefaultLevel(obs.LevelOff)

	runDir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	ctx := context.Background()
	phases := map[string]*phaseCount{"setup": {}, "warmup": {}, "timed": {}}

	var srv *server
	var e *env
	var setupS []float64
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		srv, err = startServer(serverBin, dir, w.serverFlags(), traced)
		if err != nil {
			return err
		}
		if err := srv.waitHealthy(30 * time.Second); err != nil {
			return err
		}
		e = newEnv(srv.base, phases["setup"])
		if err := w.setup(ctx, e); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		e.setPhase(phases["warmup"])
		if err := w.warmup(ctx, e); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			e.close()
			srv.stop()
			srv = nil
			os.RemoveAll(dir)
		}
	}
	e.setPhase(phases["timed"])
	defer e.close()

	dur := time.Duration(seconds) * time.Second
	var res result
	var t tails
	if !traced {
		win, err := measure(ctx, w, e, srv, dur)
		if err != nil {
			return err
		}
		res, t = endToEnd(w, win, median(setupS))
		rss, err := srv.peakRSSMB()
		if err != nil {
			return err
		}
		res.Metrics["server_peak_rss_mb"] = metric{rss, "MB"}
	} else {
		res, t, err = tracedRun(ctx, w, e, srv, dur, runDir, workDir, name, seed)
		if err != nil {
			return err
		}
	}

	record := map[string]any{
		"workload": name,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    traced,
		"host":     fingerprint(),
		"setup_s":  setupS,
		"requests": map[string]phaseReport{
			"setup": report(phases["setup"]), "warmup": report(phases["warmup"]), "timed": report(phases["timed"]),
		},
		"error_rate": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	record["op_p99_ms"], record["hit_p99_ms"], record["build_p50_ms"] = t.opP99, t.hitP99, t.buildP50
	if t.lagP99 >= 0 {
		record["generator_lag_p99_ms"] = t.lagP99
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	fmt.Printf("run record: %s\n", rec)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tails is a window's latency summary. Percentiles are medians over
// slices of the window (see slicedPercentile); lagP99 is the open-loop
// generator lag, -1 for a closed loop; buildP50 is the median fresh-key
// createSession latency.
type tails struct {
	opP50, opP99, hitP50, hitP99, lagP99 float64
	buildP50                             float64
}

// latencyTails summarises a window's op latencies (all ops) and warm
// classify latencies (successful warm ops, and the warm hop of bulk
// rounds), printing how each percentile was taken.
func latencyTails(recs []opRecord, dur time.Duration) tails {
	var lat, warm []sample
	var lags []float64
	for _, r := range recs {
		lat = append(lat, sample{r.due, float64(r.latency()) / 1e6})
		if r.kind != "round" && r.kind != "train" {
			lags = append(lags, float64(r.lag())/1e6)
		}
		switch {
		case r.err != nil:
		case r.warm:
			warm = append(warm, sample{r.due, float64(r.latency()) / 1e6})
		case r.warmHop > 0:
			warm = append(warm, sample{r.due, float64(r.warmHop) / 1e6})
		}
	}
	var t tails
	var n50, n99, h50, h99 int
	var at99, hat99 float64
	t.opP50, _, n50 = slicedPercentile(lat, dur, 50)
	t.opP99, at99, n99 = slicedPercentile(lat, dur, 99)
	t.hitP50, _, h50 = slicedPercentile(warm, dur, 50)
	t.hitP99, hat99, h99 = slicedPercentile(warm, dur, 99)
	fmt.Printf("op latency, %d samples: p50 median of %d slices; p99 median of %d slices, lowest percentile used p%.2f\n",
		len(lat), n50, n99, at99)
	fmt.Printf("hit latency, %d samples: p50 median of %d slices; p99 median of %d slices, lowest percentile used p%.2f\n",
		len(warm), h50, h99, hat99)
	t.lagP99 = -1
	if len(lags) > 0 {
		t.lagP99, _ = tailPercentile(lags, 99)
		fmt.Printf("generator lag p99: %.3f ms over %d sends\n", t.lagP99, len(lags))
	}
	return t
}

// buildLatencies returns the fresh-key createSession latencies (ms) of a
// workload: its set-up probes, or the trainer's calls in the window.
func buildLatencies(w workload, recs []opRecord) []float64 {
	if p := w.probes(); p != nil {
		return p
	}
	var out []float64
	for _, r := range recs {
		if r.build && r.err == nil {
			out = append(out, float64(r.latency())/1e6)
		}
	}
	return out
}

// endToEnd turns a window into the end-to-end metrics.
func endToEnd(w workload, win *window, setupS float64) (result, tails) {
	var good, failed, rows int64
	for _, r := range win.recs {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "failed %s op: %v\n", r.kind, r.err)
			continue
		}
		if r.latency() <= w.limit() {
			good++
		}
		rows += int64(r.rows)
	}
	n := int64(len(win.recs))
	secs := win.elapsed.Seconds()
	fmt.Printf("window: %d ops in %.2fs, %d failed; host steal %.1f%%\n", n, secs, failed, 100*win.stealShare)
	t := latencyTails(win.recs, win.dur)
	t.buildP50 = median(buildLatencies(w, win.recs))
	res := result{
		Correct:   failed == 0,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":              {setupS, "s"},
			"op_p50_ms":            {t.opP50, "ms"},
			"hit_p50_ms":           {t.hitP50, "ms"},
			"goodput_ops_per_s":    {float64(good) / secs, "ops/s"},
			"rows_per_s":           {float64(rows) / secs, "rows/s"},
			"server_cpu_ms_per_op": {win.serverCPU / float64(max(n, 1)), "ms"},
			"client_cpu_ms_per_op": {win.clientCPU / float64(max(n, 1)), "ms"},
		},
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "metric %s has no samples\n", k)
		}
	}
	return res, t
}

// fingerprint describes the host and build the numbers came from.
func fingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
