package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/services"
)

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	if v, used := tailPercentile(xs, 99); v != 990 || used != 99 {
		t.Errorf("p99 of 1..1000 = %v at p%v, want 990 at p99", v, used)
	}
	if v, used := tailPercentile(xs, 50); v != 500 || used != 50 {
		t.Errorf("p50 of 1..1000 = %v at p%v, want 500 at p50", v, used)
	}
	// 200 samples cannot support a p99 with 10 samples beyond it: the
	// helper falls back to the 190th smallest value, p95.
	if v, used := tailPercentile(xs[:200], 99); v != 990 || used != 95 {
		t.Errorf("capped p99 of 200 = %v at p%v, want 990 at p95", v, used)
	}
	if v, _ := tailPercentile([]float64{7, 3, 5}, 99); v != 3 {
		t.Errorf("p99 of 3 samples = %v, want the minimum 3", v)
	}
	if v, used := tailPercentile(nil, 99); !math.IsNaN(v) || used != 0 {
		t.Errorf("empty input = %v at p%v, want NaN at p0", v, used)
	}
	if xs[0] != 1000 {
		t.Error("tailPercentile reordered its input")
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(7, 400, 2*time.Second, interactiveWeights)
	b := schedule(7, 400, 2*time.Second, interactiveWeights)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 400, 2*time.Second, interactiveWeights)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 800 {
		t.Fatalf("%d arrivals, want 800", len(a))
	}
	counts := make([]int, len(interactiveWeights))
	for i, x := range a {
		if want := time.Duration(i) * 2500 * time.Microsecond; x.due != want {
			t.Fatalf("arrival %d due %v, want %v", i, x.due, want)
		}
		counts[x.kind]++
	}
	// 800 arrivals are 40 whole mix blocks, so the shares are exact.
	for k, w := range interactiveWeights {
		if want := int(math.Round(w * float64(len(a)))); counts[k] != want {
			t.Errorf("kind %d sent %d times, want %d", k, counts[k], want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames checks every metric name the benchmark prints against
// the allowed alphabet and against BENCHMARK.json, in both modes.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	win := &window{dur: time.Second, elapsed: time.Second, recs: []opRecord{
		{kind: "warm", end: time.Millisecond, opResult: opResult{rows: 64, warm: true}},
		{kind: "train", end: 5 * time.Millisecond, opResult: opResult{rows: 300, build: true}},
	}}
	res, _ := endToEnd(&churn{}, win, 0.5)
	res.Metrics["server_peak_rss_mb"] = metric{1, "MB"}
	check := func(mode string, printed map[string]metric, want []struct{ Name, Unit string }) {
		var names []string
		for _, m := range want {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", mode, m.Name)
			}
			names = append(names, m.Name)
			if got, ok := printed[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %s printed as %+v, want unit %s", mode, m.Name, got, m.Unit)
			}
		}
		got := sortedKeys(printed)
		sort.Strings(names)
		if !reflect.DeepEqual(got, names) {
			t.Errorf("%s metrics printed %v, BENCHMARK.json lists %v", mode, got, names)
		}
	}
	check("end-to-end", res.Metrics, spec.EndToEnd)
	perLayer := map[string]metric{}
	for _, pl := range perLayerUnits {
		perLayer[pl.name] = metric{0, pl.unit}
	}
	check("per-layer", perLayer, spec.PerLayer)
}

func TestOracleRejectsCorruptedReply(t *testing.T) {
	train := datagen.IrisLike(20, 1)
	m, err := trainLocal("NaiveBayes", train)
	if err != nil {
		t.Fatal(err)
	}
	block := head(datagen.IrisLike(5, 2), 8)
	want, err := predict(m, block)
	if err != nil {
		t.Fatal(err)
	}
	reply := func() []core.Label {
		var out []core.Label
		for i, l := range want.labels {
			out = append(out, core.Label{Index: l, Distribution: append([]float64(nil), want.dists[i]...)})
		}
		return out
	}
	if err := checkLabels(reply(), want); err != nil {
		t.Fatalf("faithful reply rejected: %v", err)
	}
	bad := reply()
	bad[3].Distribution[0] = math.Float64frombits(math.Float64bits(bad[3].Distribution[0]) ^ 1)
	if checkLabels(bad, want) == nil {
		t.Error("a one-ulp change in a distribution passed the oracle")
	}
	bad = reply()
	bad[0].Index = (bad[0].Index + 1) % 3
	if checkLabels(bad, want) == nil {
		t.Error("a wrong label passed the oracle")
	}
	if checkLabels(reply()[:7], want) == nil {
		t.Error("a short reply passed the oracle")
	}

	got := block.Clone()
	if err := checkDataset(got, block); err != nil {
		t.Fatalf("identical block rejected: %v", err)
	}
	got.Instances[2].Values[1] = dataset.Missing
	if checkDataset(got, block) == nil {
		t.Error("a changed cell passed the oracle")
	}
	if checkInts("assignments", []int{0, 1, 2}, []int{0, 1, 1}) == nil {
		t.Error("a wrong cluster assignment passed the oracle")
	}
	if checkFloats("values", []float64{1, 2}, []float64{1, math.Nextafter(2, 3)}) == nil {
		t.Error("a wrong regression value passed the oracle")
	}
	if checkNames([]string{"a", "b"}, []string{"a", "c"}) == nil {
		t.Error("a wrong textual label passed the oracle")
	}

	tree := "J48 pruned tree\n------------------\n\nnode-caps = yes: x\nnode-caps = no: y\n"
	if err := checkTree([]string{tree}, tree); err != nil {
		t.Fatalf("matching tree rejected: %v", err)
	}
	if checkTree([]string{tree + " "}, tree) == nil {
		t.Error("a different tree passed the oracle")
	}
	if checkTree([]string{"deg-malig = 1: x"}, "deg-malig = 1: x") == nil {
		t.Error("a tree not rooted at node-caps passed the oracle")
	}

	d := trainerDataset(1, 0)
	key := services.InstanceKey("J48", nil, d, "class")
	tok := "dms1.eyJ2IjoxLCJrZXkiOiJhYmMiLCJhbGciOiJKNDgifQ" // {"v":1,"key":"abc","alg":"J48"}
	if err := checkToken(tok, "abc"); err != nil {
		t.Fatalf("matching token rejected: %v", err)
	}
	if checkToken(tok, key) == nil {
		t.Error("a session filed under the wrong key passed the oracle")
	}
	if checkToken("not-a-token", key) == nil {
		t.Error("a malformed token passed the oracle")
	}
}

func TestProcReaders(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := []byte("4242 (dm server (x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 " +
		"1234 567 0 0 20 0 9 0 100 800000000 5000 18446744073709551615\n")
	ms, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ms != (1234+567)*10 {
		t.Errorf("cpu = %v ms, want %v", ms, (1234+567)*10)
	}
	if _, err := parseProcStatCPU([]byte("4242 (short) S 1")); err == nil {
		t.Error("truncated stat parsed")
	}
	status := []byte("Name:\tdmserver\nVmPeak:\t 1300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n")
	mb, err := parseProcStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if mb != 20 {
		t.Errorf("VmHWM = %v MB, want 20", mb)
	}
	if _, err := parseProcStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
	// The live readers agree with the parsers on this very process.
	if b, err := os.ReadFile("/proc/self/stat"); err == nil {
		if _, err := parseProcStatCPU(b); err != nil {
			t.Errorf("own /proc/self/stat: %v", err)
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
