package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the driver's declarations and the
// declarations to the benchmark contract's limits.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	check := func(m metric) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q breaks the naming limits", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m)
		if m.moves == "" {
			t.Errorf("per-layer metric %q names no end-to-end metric it should move", m.Name)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, w := range workloadDecls {
		check(metric{Name: w.Name, Unit: "count", Better: "lower"})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, err := shapeOf(w.Name, scales["full"]); err != nil {
			t.Error(err)
		}
	}
}

func tinyOptions(t *testing.T, workload string, workers, trace int) options {
	return options{
		workload: workload, seed: 2021, seconds: 0, trace: trace, scale: "tiny",
		workers: workers, dbPath: filepath.Join("..", "data", "syndromes.json"), tmpRoot: t.TempDir(),
	}
}

// runTiny runs one workload in-process at tiny scale and checks what it
// prints against the declarations: every declared metric exactly once,
// with its unit, finite and non-negative, and nothing undeclared.
func runTiny(t *testing.T, workload string, workers, trace int, decls []metric) *runResult {
	t.Helper()
	o := tinyOptions(t, workload, workers, trace)
	res, err := runWorkload(context.Background(), o)
	if err != nil {
		t.Fatalf("%s (trace %d): %v", workload, trace, err)
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %d): %d of %d operations failed: %v", workload, trace, res.Failed, res.Attempted, res.Failures)
	}
	var printed bytes.Buffer
	if err := res.emit(&printed, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(printed.String()), "\n")
	var last struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("%s: result line says %+v", workload, last)
	}
	if len(last.Metrics) != len(decls) {
		t.Errorf("%s (trace %d): %d metrics emitted, %d declared", workload, trace, len(last.Metrics), len(decls))
	}
	for _, m := range decls {
		v, ok := last.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", workload, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", workload, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
			t.Errorf("%s: %s = %v", workload, m.Name, v.Value)
		}
		n := 0
		for _, line := range lines[:len(lines)-1] {
			if f := strings.Fields(line); len(f) > 2 && f[0] == m.Name && f[2] == m.Unit {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %s printed on %d lines, want 1", workload, m.Name, n)
		}
	}
	return res
}

// TestSmoke runs all five workloads at tiny scale, untraced and traced,
// and requires the simulated statistics of a pass to be identical on one
// and on two workers and in the traced and the untraced run.
func TestSmoke(t *testing.T) {
	workers := min(runtime.NumCPU(), 2)
	for _, w := range workloadDecls {
		t.Run(w.Name, func(t *testing.T) {
			plain := runTiny(t, w.Name, workers, 0, endToEnd)
			for _, m := range endToEnd {
				if plain.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			traced := runTiny(t, w.Name, workers, 1, perLayer)
			if len(traced.Spans) == 0 || traced.Metrics["trace.spans"].Value != float64(len(traced.Spans)) {
				t.Errorf("traced run kept %d spans, reported %v", len(traced.Spans), traced.Metrics["trace.spans"].Value)
			}
			if traced.Passes[0].Digest != plain.Passes[0].Digest {
				t.Errorf("traced run digest %s, untraced %s", traced.Passes[0].Digest, plain.Passes[0].Digest)
			}
			sum := 0.0
			for _, secs := range traced.LayerSelfS {
				sum += secs
			}
			if math.Abs(sum-traced.TracedWallS) > 0.02*traced.TracedWallS {
				t.Errorf("layer self times sum to %.4f s, traced pass took %.4f s", sum, traced.TracedWallS)
			}
			if workers < 2 {
				t.Log("one CPU: worker-count invariance not checked")
				return
			}
			o := tinyOptions(t, w.Name, 1, 0)
			e := &env{ctx: context.Background(), workers: 1, dbPath: o.dbPath, tmp: o.tmpRoot}
			sh, _ := shapeOf(w.Name, scales["tiny"])
			st, err := build(e, sh)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			runtime.GOMAXPROCS(1)
			single, err := runPass(e, st, sh, o.seed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.finish(); err != nil {
				t.Fatal(err)
			}
			if d := single.stats.digest(); d != plain.Passes[0].Digest {
				t.Errorf("digest on 1 worker %s, on 2 workers %s", d, plain.Passes[0].Digest)
			}
		})
	}
}

func TestTooManyWorkersFailsFast(t *testing.T) {
	o := tinyOptions(t, "sw_cnn", runtime.NumCPU()+1, 0)
	if _, err := runWorkload(context.Background(), o); err == nil {
		t.Fatal("more workers than CPUs was accepted")
	}
}

func TestMedianAndPercentiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(hundred, 90); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
	// 100 samples leave exactly ten beyond p90; 99 do not, and fall back
	// to the highest percentile with ten beyond it.
	if v, used := tailPercentile(hundred, 90); used != 90 || v != percentile(hundred, 90) {
		t.Errorf("tailPercentile(100 samples) = %v at p%v", v, used)
	}
	if _, used := tailPercentile(hundred[:50], 90); used != 80 {
		t.Errorf("50 samples: used p%v, want p80", used)
	}
	if v, used := tailPercentile(hundred[:12], 90); used != 50 || v != median(hundred[:12]) {
		t.Errorf("12 samples: %v at p%v, want the median", v, used)
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(xs, n=4): [2.75, 5.5, 8.25] for 1..10 and
// [0.75, 1.5, 2.25] for [1, 2].
func TestQuartileSpread(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := quartileSpread([]float64{1, 2}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of [1 2] = %v, want 1", got)
	}
	if got := quartileSpread([]float64{100, 101, 99, 100.5, 99.5}); math.Abs(got-0.015) > 1e-12 {
		t.Errorf("spread = %v, want 0.015", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one sample has spread %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "rtlfi.run_unit", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "rtlfi.run_unit", StartNS: 40, EndNS: 70}, // overlaps 2 by 10
		{ID: 4, Parent: 2, Name: "syndrome.add_unit", StartNS: 20, EndNS: 30},
		{ID: 5, Parent: 0, Name: "probes", StartNS: 100, EndNS: 130},
		{ID: 6, Parent: 5, Name: "rtl.probe", StartNS: 100, EndNS: 125},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 30, 4: 10, 5: 5, 6: 25} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	layers := layerSelfSeconds(spans, 1)
	want := map[string]float64{"pass": 40e-9, "rtlfi": 60e-9, "syndrome": 10e-9}
	if len(layers) != len(want) {
		t.Errorf("layers %v, want %v", layers, want)
	}
	for layer, secs := range want {
		if math.Abs(layers[layer]-secs) > 1e-15 {
			t.Errorf("layer %s self %v, want %v", layer, layers[layer], secs)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	none.end(none.begin("ignored"), nil) // a nil tracer records nothing
	tr := newTracer("w")
	a := tr.begin("a")
	b := tr.begin("b.inner")
	tr.end(b, map[string]float64{"n": 1})
	tr.end(a, nil)
	if len(tr.spans) != 2 || tr.spans[1].Parent != a || tr.spans[0].Parent != 0 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[1].EndNS < tr.spans[1].StartNS || tr.spans[0].EndNS < tr.spans[1].EndNS {
		t.Errorf("span times out of order: %+v", tr.spans)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, rate float64, rates []float64, sim float64) string {
		rs := resultSet{Runs: map[string]*runResult{}}
		for _, w := range workloadDecls {
			r := &runResult{Workload: w.Name, Attempted: 3, SetupS: []float64{1, 1, 1}, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "faults_per_s": {rate, "1/s"}, "peak_rss_mb": {100, "MB"},
			}}
			for i, x := range rates {
				r.Passes = append(r.Passes, passRecord{Seed: uint64(i), Rate: x, Digest: "d", Exact: map[string]float64{"rtl.sim_cycles": sim}})
			}
			rs.Runs[w.Name] = r
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 100, 100}
	base := set("a.json", 100, steady, 7)
	cases := []struct {
		name   string
		other  string
		ok     bool
		expect string
	}{
		{"same", set("b.json", 100, steady, 7), true, "within bound"},
		{"within", set("c.json", 90, steady, 7), true, "within bound"},
		{"regressed", set("d.json", 70, steady, 7), false, "OUT OF BOUND"},
		{"noisy", set("e.json", 100, []float64{50, 100, 150}, 7), true, "unresolved"},
		{"counter moved", set("f.json", 100, steady, 8), false, "exact counter differs"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, c.other)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok = %v, want %v with %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
	}
}

func TestExpectedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := updateExpected(dir, "w", map[string]string{expectedKey("tiny", 1, 0): "aa"}); err != nil {
		t.Fatal(err)
	}
	if err := updateExpected(dir, "w", map[string]string{expectedKey("tiny", 1, 1): "bb"}); err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	if err := readJSON(filepath.Join(dir, "w.json"), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["tiny/1/0"] != "aa" || got["tiny/1/1"] != "bb" {
		t.Errorf("merged expected file holds %v", got)
	}
	for _, w := range workloadDecls {
		for _, seed := range []uint64{2021, 7919} {
			if _, ok := loadExpected(w.Name)[expectedKey("full", seed, 0)]; !ok {
				t.Errorf("bench/expected/%s.json has no digest for seed %d", w.Name, seed)
			}
		}
	}
}
