// Command perfbench is the repository's benchmark.  It drives the
// optimizer from outside, through public entry points only, on one of
// three workloads:
//
//   - suite: the paper's routine corpus at all four levels, one job
//     per (routine, level), closed loop on one goroutine;
//   - scale: generated programs on a doubling size ladder, where the
//     optimizer's cost growth shows;
//   - serve: an in-process optimization server under an open-loop
//     schedule followed by a closed-loop stage.
//
// Every output is checked.  The last line of standard output is one
// JSON object with the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1).  A fuller report, and the spans
// of a traced run, go to the report directory.
//
// Usage:
//
//	perfbench -workload suite|scale|serve -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the tables below are the
// benchmark's metric inventory, mirrored by BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
	{"static_ops", "count", "lower"},
	{"dyn_ops.baseline", "count", "lower"},
	{"dyn_ops.partial", "count", "lower"},
	{"dyn_ops.reassoc", "count", "lower"},
	{"dyn_ops.dist", "count", "lower"},
}

// tracedPasses are the passes whose cost the traced run breaks out:
// every pass of the four levels with the default backends.
var tracedPasses = []string{
	"sccp", "peephole", "dce", "coalesce", "emptyblocks",
	"normalize", "pre", "gvn", "reassoc", "reassoc-dist",
}

// perLayer lists the metrics every traced run reports.  A layer the
// workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"minift.ms", "ms", "lower"},
		{"pl0.ms", "ms", "lower"},
		{"ir.parse_ms", "ms", "lower"},
		{"ir.print_ms", "ms", "lower"},
	}
	for _, p := range tracedPasses {
		defs = append(defs,
			metricDef{"pass." + p + ".ms", "ms", "lower"},
			metricDef{"pass." + p + ".calls", "count", "lower"},
			metricDef{"pass." + p + ".changed_ratio", "ratio", "higher"},
			metricDef{"pass." + p + ".slope", "ratio", "lower"},
		)
	}
	return append(defs,
		metricDef{"ssa.build_ms", "ms", "lower"},
		metricDef{"ssa.destruct_ms", "ms", "lower"},
		metricDef{"analysis.builds.rpo", "count", "lower"},
		metricDef{"analysis.builds.dom", "count", "lower"},
		metricDef{"analysis.builds.loops", "count", "lower"},
		metricDef{"analysis.builds.liveness", "count", "lower"},
		metricDef{"core.alloc_mb", "MB", "lower"},
		metricDef{"interp.ms", "ms", "lower"},
		metricDef{"interp.steps_per_s", "1/s", "higher"},
		metricDef{"serve.hit_ratio", "ratio", "higher"},
		metricDef{"serve.disk_hit_ratio", "ratio", "higher"},
		metricDef{"serve.shared", "count", "higher"},
		metricDef{"serve.rejected", "count", "lower"},
		metricDef{"serve.hit_p50_ms", "ms", "lower"},
		metricDef{"serve.miss_p50_ms", "ms", "lower"},
		metricDef{"serve.queue_depth_max", "count", "lower"},
		metricDef{"serve.cachekey_us", "us", "lower"},
		metricDef{"loadgen.lag_ms", "ms", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// report is everything one run measured.  The result line carries a
// subset; the whole report is written to the report directory.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       map[string]any    `json:"env"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Failures  []string          `json:"failures,omitempty"`
	OutputSHA string            `json:"output_sha"`
	Samples   map[string]any    `json:"samples"`
	Metrics   map[string]metric `json:"metrics"`
	Details   map[string]any    `json:"details,omitempty"`

	units map[string]string
	cal   *calibrator
}

func newReport(cfg runConfig) *report {
	r := &report{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Seconds:  cfg.Seconds,
		Trace:    cfg.Trace,
		Env: map[string]any{
			"nproc":            runtime.NumCPU(),
			"gomaxprocs":       runtime.GOMAXPROCS(0),
			"go_version":       runtime.Version(),
			"pipeline_version": core.PipelineVersion(),
			"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
		},
		Samples: map[string]any{},
		Metrics: map[string]metric{},
		Details: map[string]any{},
		units:   map[string]string{},
		cal:     newCalibrator(),
	}
	for _, d := range endToEnd {
		r.units[d.Name] = d.Unit
	}
	for _, d := range perLayer() {
		r.units[d.Name] = d.Unit
	}
	return r
}

// set records a metric by name; the unit comes from the inventory.
func (r *report) set(name string, v float64) {
	u, ok := r.units[name]
	if !ok {
		panic("perfbench: metric not in inventory: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// fail counts one failed operation and keeps the first messages.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultOf selects the metrics a run's mode reports.  Every end-to-end
// metric must be present; an unexercised layer reads 0.
func resultOf(r *report) (result, error) {
	out := result{Attempted: r.Attempted, Failed: r.Failed, Correct: r.Failed == 0 && r.Attempted > 0, Metrics: map[string]metric{}}
	if !r.Trace {
		for _, d := range endToEnd {
			m, ok := r.Metrics[d.Name]
			if !ok {
				return out, fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
			}
			out.Metrics[d.Name] = m
		}
		return out, nil
	}
	for _, d := range perLayer() {
		m, ok := r.Metrics[d.Name]
		if !ok {
			m = metric{Value: 0, Unit: d.Unit}
		}
		out.Metrics[d.Name] = m
	}
	return out, nil
}

var workloads = map[string]func(runConfig, *report) error{
	"suite": runSuite,
	"scale": runScale,
	"serve": runServe,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: suite, scale or serve")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build/reports", "report directory")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want suite, scale or serve)", cfg.Workload)
	}
	r := newReport(cfg)
	if err := fn(cfg, r); err != nil {
		return err
	}
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
	f := r.cal.factors
	r.Details["calibration"] = map[string]any{
		"ref_s": calRef, "factors": len(f), "median": median(f), "min": slices.Min(f), "max": slices.Max(f),
	}
	res, err := resultOf(r)
	if err != nil {
		return err
	}
	if err := writeReport(cfg, r); err != nil {
		return err
	}
	printSummary(r)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeReport(cfg runConfig, r *report) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	mode := "trace0"
	if cfg.Trace {
		mode = "trace1"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", cfg.Workload, cfg.Seed, mode)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, name), append(data, '\n'), 0o644)
}

// writeSpans stores a traced run's spans beside its report.
func writeSpans(cfg runConfig, tr *tracer) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.Workload, cfg.Seed)))
}

// printSummary writes the human-readable part of the output: the
// environment, failures, sample counts and every metric with its unit.
func printSummary(r *report) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  env %-20s %v\n", k, r.Env[k])
	}
	fmt.Printf("  attempted %d  failed %d  fail_ratio %g  output_sha %s\n", r.Attempted, r.Failed, r.FailRatio, r.OutputSHA)
	for _, f := range r.Failures {
		fmt.Printf("  FAIL %s\n", f)
	}
	keys = keys[:0]
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples %-18s %v\n", k, r.Samples[k])
	}
	keys = keys[:0]
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.Metrics[k]
		fmt.Printf("  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// since reports the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
