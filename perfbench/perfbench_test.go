package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestInventoryMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists
// and the metrics the program reports in step.
func TestInventoryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

// deterministic reports whether a metric must repeat exactly across
// runs with the same seed.
func deterministic(name string) bool {
	return name == "static_ops" ||
		strings.HasPrefix(name, "dyn_ops.") ||
		strings.HasPrefix(name, "analysis.builds.") ||
		strings.HasPrefix(name, "pass.") && (strings.HasSuffix(name, ".calls") || strings.HasSuffix(name, ".changed_ratio"))
}

// TestDeterministicCounts runs each job workload twice with the same
// seed, untraced and traced, and requires identical counts and output.
func TestDeterministicCounts(t *testing.T) {
	tiny := []rung{{20, []uint64{1, 2}}, {40, []uint64{1, 2}}}
	workloads := map[string]func(runConfig, *report) error{
		"suite": runSuite,
		"scale": func(cfg runConfig, rep *report) error { return runLadder(cfg, rep, tiny) },
	}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			var reps [2]*report
			for i := range reps {
				cfg := runConfig{Workload: name, Seed: 7, Seconds: 0, Trace: trace, OutDir: t.TempDir()}
				reps[i] = newReport(cfg)
				if err := fn(cfg, reps[i]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if reps[i].Failed != 0 {
					t.Fatalf("%s: %d failures: %v", name, reps[i].Failed, reps[i].Failures)
				}
			}
			if reps[0].OutputSHA != reps[1].OutputSHA || reps[0].OutputSHA == "" {
				t.Errorf("%s trace=%v: output_sha %q then %q", name, trace, reps[0].OutputSHA, reps[1].OutputSHA)
			}
			counted := 0
			for k, m := range reps[0].Metrics {
				if !deterministic(k) {
					continue
				}
				counted++
				if m2, ok := reps[1].Metrics[k]; !ok || m2.Value != m.Value {
					t.Errorf("%s trace=%v: %s = %v then %v", name, trace, k, m.Value, m2.Value)
				}
			}
			if min := 5; counted < min {
				t.Errorf("%s trace=%v: only %d deterministic metrics compared", name, trace, counted)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "opt", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "pass", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "pass", Start: 25, End: 40}, // overlaps the first
		{ID: 5, Parent: 1, Name: "print", Start: 70, End: 80},
	}
	got := tr.selfTimes()
	want := map[string]time.Duration{"job": 40, "opt": 30, "pass": 25, "print": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestTail(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l = append(l, float64(i))
	}
	tl := tailOf(l)
	if tl.Value != 90 || tl.Samples != 100 || tl.Percentile != 90 {
		t.Errorf("tail of 1..100 = %+v, want the 90th value with 10 beyond", tl)
	}
	if tl := tailOf(l[:15]); tl.Value != 15 || tl.Percentile != 100 {
		t.Errorf("tail of 15 samples = %+v, want the maximum", tl)
	}
	// Four segments of 25; their tails are 15, 40, 65 and 90.
	if st := segmentedTail(l, 25); st.Value != 65 || st.Segments != 4 || st.Samples != 100 {
		t.Errorf("segmented tail = %+v, want the upper median segment tail 65", st)
	}
}

func TestLoglogSlope(t *testing.T) {
	xs := []float64{100, 200, 400}
	ys := []float64{1, 4, 16}
	if s := loglogSlope(xs, ys); math.Abs(s-2) > 1e-9 {
		t.Errorf("slope of a quadratic = %v, want 2", s)
	}
	if s := loglogSlope([]float64{5}, []float64{1}); s != 0 {
		t.Errorf("slope of one point = %v, want 0", s)
	}
}
