package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/ssa"
)

// caller runs one interpreter call; the traced run wraps it in a span.
type caller func(m *interp.Machine, fn string, args []interp.Value) (interp.Value, error)

// job is one unit of the suite and scale workloads: turn a source into
// a program, optimize it at one level, print the result and check it
// by interpretation.
type job struct {
	Name   string
	Lang   string // "mf", "pl0" or "iloc"
	Source string
	Level  core.Level
	// Parse reads Source with ir.ParseProgramString instead of
	// lang.Compile.
	Parse  bool
	Instrs int // input instruction count, for the growth fit
	Size   int // generated body blocks; 0 for suite routines
	// check interprets the optimized program, compares it with the
	// job's reference and returns the operations executed.
	check func(p *ir.Program, call caller) (int64, error)
}

// frontLayer names the layer that turns a source of the given
// language into a program.
func frontLayer(lang string) string {
	switch lang {
	case "iloc":
		return "ir.parse"
	case "mf":
		return "minift"
	}
	return lang
}

// jobResult is what one job produced.
type jobResult struct {
	Static int
	Dyn    int64
	Sum    [32]byte // SHA-256 of the optimized ILOC
	Dur    time.Duration
	Pass   map[string]time.Duration // traced runs only
}

// runner executes jobs, tracing them when tr is non-nil.
type runner struct {
	tr  *tracer
	seq int32

	// Totals over traced jobs.
	jobs    int
	calls   map[string]int64
	changed map[string]int64
	builds  analysis.BuildCounts
	alloc   uint64
	steps   int64
}

func newRunner(tr *tracer) *runner {
	return &runner{tr: tr, calls: map[string]int64{}, changed: map[string]int64{}}
}

// allocated reads the bytes the process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// run executes one job.  The job's latency covers the front end, the
// optimizer, printing and the check; a traced run also times an SSA
// round trip on a clone of the input, outside the latency.
func (r *runner) run(j *job) (jobResult, error) {
	var res jobResult
	tr := r.tr
	r.seq++
	start := time.Now()
	root := tr.open(r.seq, 0, "job")

	var prog *ir.Program
	var err error
	tr.timed(r.seq, root, frontLayer(j.Lang), func() {
		if j.Parse {
			prog, err = ir.ParseProgramString(j.Source)
		} else {
			prog, _, err = lang.Compile(j.Source, j.Lang)
		}
	})
	if err != nil {
		tr.close(root)
		return res, fmt.Errorf("%s: front end: %w", j.Name, err)
	}

	opts := core.OptimizeOptions{Workers: 1}
	var optID int32
	var allocBefore uint64
	if tr != nil {
		res.Pass = map[string]time.Duration{}
		opts.OnPass = func(pi core.PassInfo) {
			end := tr.now()
			tr.add(r.seq, optID, "pass."+pi.Pass, end-int64(pi.Duration), end)
			res.Pass[pi.Pass] += pi.Duration
			r.calls[pi.Pass]++
			if pi.Changed {
				r.changed[pi.Pass]++
			}
			b := pi.Builds
			r.builds.RPO += b.RPO
			r.builds.Dom += b.Dom
			r.builds.Loops += b.Loops
			r.builds.Liveness += b.Liveness
		}
		allocBefore = allocated()
	}
	optID = tr.open(r.seq, root, "core.optimize")
	out, err := core.OptimizeWith(prog, j.Level, opts)
	tr.close(optID)
	if tr != nil {
		r.alloc += allocated() - allocBefore
	}
	if err != nil {
		tr.close(root)
		return res, fmt.Errorf("%s at %s: optimize: %w", j.Name, j.Level, err)
	}

	var text string
	tr.timed(r.seq, root, "ir.print", func() { text = out.String() })
	res.Static = out.InstrCount()
	res.Sum = sha256.Sum256([]byte(text))

	res.Dyn, err = j.check(out, r.callIn(root))
	tr.close(root)
	res.Dur = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("%s at %s: %w", j.Name, j.Level, err)
	}

	if tr != nil {
		r.jobs++
		for _, f := range prog.Clone().Funcs {
			tr.timed(r.seq, 0, "ssa.build", func() { ssa.Build(f, ssa.BuildOptions{Prune: true, FoldCopies: true}) })
			tr.timed(r.seq, 0, "ssa.destruct", func() { ssa.Destruct(f) })
		}
	}
	return res, nil
}

// callIn returns a caller whose interpreter spans are children of
// parent.
func (r *runner) callIn(parent int32) caller {
	return func(m *interp.Machine, fn string, args []interp.Value) (v interp.Value, err error) {
		r.tr.timed(r.seq, parent, "interp", func() { v, err = m.Call(fn, args...) })
		if r.tr != nil {
			r.steps += m.Steps
		}
		return v, err
	}
}

// loop is the outcome of measuring a job list.  Its times are scaled
// by the calibration factor current when each job ran.
type loop struct {
	lat     latencies   // untraced job latencies, in run order
	jobLat  [][]float64 // untraced latencies per job, in seconds
	jobRSS  [][]float64 // untraced peak RSS per job, when isolated
	rawSecs float64     // unscaled job time of the untraced passes
	passes  int         // untraced passes
	// Summed job latencies of each untraced and traced pass, for the
	// tracing overhead.
	jobSecs, tracedJobSecs []float64
	first                  []jobResult
	perJob                 [][]jobResult // traced results per job
}

// measure runs whole passes over jobs, each in a seed-shuffled order,
// until the next pass would end after seconds, and at least minPasses.
// In a traced run the passes alternate untraced and traced, so the
// tracing overhead is measured under the same conditions.  With
// isolate, every job starts from a heap returned to the operating
// system, as in a fresh process, and its own peak RSS is recorded.  Every
// result is checked against the job's reference and against the first
// pass's output.
func measure(jobs []job, seconds float64, rng *rand.Rand, tr *tracer, rep *report, isolate bool) (*loop, *runner) {
	plain, traced := newRunner(nil), newRunner(tr)
	l := &loop{
		first:  make([]jobResult, len(jobs)),
		jobLat: make([][]float64, len(jobs)),
		jobRSS: make([][]float64, len(jobs)),
		perJob: make([][]jobResult, len(jobs)),
	}
	f, calAt := rep.cal.factor(), time.Now()
	seen := make([]bool, len(jobs))
	minPasses := 1
	if tr != nil {
		minPasses = 2
	}
	t0 := time.Now()
	last := 0.0
	for pass := 0; pass < minPasses || since(t0)+last <= seconds; pass++ {
		useTrace := tr != nil && pass%2 == 1
		rn := plain
		if useTrace {
			rn = traced
		}
		ps := time.Now()
		var busy time.Duration
		for _, i := range rng.Perm(len(jobs)) {
			if isolate {
				debug.FreeOSMemory()
				resetPeakRSS()
			}
			if time.Since(calAt) >= calEvery {
				f, calAt = rep.cal.factor(), time.Now()
			}
			rep.Attempted++
			res, err := rn.run(&jobs[i])
			if !useTrace {
				l.rawSecs += res.Dur.Seconds()
			}
			res.Dur = time.Duration(float64(res.Dur) * f)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			busy += res.Dur
			if !seen[i] {
				seen[i], l.first[i] = true, res
			} else if res.Sum != l.first[i].Sum || res.Dyn != l.first[i].Dyn {
				rep.fail("%s at %s: output differs between passes", jobs[i].Name, jobs[i].Level)
			}
			if useTrace {
				l.perJob[i] = append(l.perJob[i], res)
			} else {
				l.lat.add(res.Dur)
				l.jobLat[i] = append(l.jobLat[i], res.Dur.Seconds())
				if isolate {
					l.jobRSS[i] = append(l.jobRSS[i], peakRSSMB())
				}
			}
		}
		last = since(ps)
		if useTrace {
			l.tracedJobSecs = append(l.tracedJobSecs, busy.Seconds())
		} else {
			l.passes++
			l.jobSecs = append(l.jobSecs, busy.Seconds())
		}
	}
	return l, traced
}

// countOnce runs every job one more time, untimed, for the
// deterministic counts of levels the timed loop leaves out.
func countOnce(jobs []job, rep *report) []jobResult {
	rn := newRunner(nil)
	out := make([]jobResult, len(jobs))
	for i := range jobs {
		rep.Attempted++
		res, err := rn.run(&jobs[i])
		if err != nil {
			rep.fail("%v", err)
		}
		out[i] = res
	}
	return out
}

// levelKey maps a level to its dyn_ops metric suffix.
var levelKey = map[core.Level]string{
	core.LevelBaseline: "baseline",
	core.LevelPartial:  "partial",
	core.LevelReassoc:  "reassoc",
	core.LevelDist:     "dist",
}

// setCounts records static_ops, dyn_ops.* and output_sha from one
// result per job, in job order.
func setCounts(rep *report, jobs []job, results []jobResult) {
	h := sha256.New()
	static := 0
	dyn := map[string]int64{}
	for i, j := range jobs {
		res := results[i]
		static += res.Static
		dyn[levelKey[j.Level]] += res.Dyn
		fmt.Fprintf(h, "%s %s %x\n", j.Name, j.Level, res.Sum)
	}
	rep.OutputSHA = hex.EncodeToString(h.Sum(nil))
	rep.set("static_ops", float64(static))
	for _, lv := range core.Levels {
		rep.set("dyn_ops."+levelKey[lv], float64(dyn[levelKey[lv]]))
	}
}

// setJobMetrics records the closed-loop end-to-end metrics of a
// measured job loop.  Throughput is the jobs of one pass over the sum
// of each job's median latency, so one slow pass does not move it.
func setJobMetrics(rep *report, jobs []job, l *loop, limitMS float64, tailPasses int) {
	perPass := 0.0
	for _, v := range l.jobLat {
		perPass += median(v)
	}
	tl := segmentedTail(l.lat, tailPasses*len(jobs))
	rep.set("jobs_per_s", float64(len(jobs))/perPass)
	rep.set("job_p50_ms", median(l.lat))
	rep.set("job_tail_ms", tl.Value)
	within := 0
	for _, v := range l.lat {
		if v <= limitMS {
			within++
		}
	}
	rep.set("goodput_rps", float64(within)/float64(l.passes)/perPass)
	rep.Samples["job_p50_ms"] = len(l.lat)
	rep.Samples["job_tail_ms"] = tl
	rep.Samples["passes"] = l.passes
	rep.Details["raw_jobs_per_s"] = float64(len(jobs)*l.passes) / l.rawSecs
	rep.Env["latency_limit_ms"] = limitMS
}

// setLayerMetrics records the per-layer metrics of the traced passes,
// per traced job.  groupOf assigns each job to a point of the growth
// fit.
func setLayerMetrics(rep *report, jobs []job, l *loop, rn *runner, tr *tracer, groupOf func(*job) string) {
	n := float64(rn.jobs)
	if n == 0 {
		return
	}
	self := tr.selfTimes()
	ms := func(name string) float64 { return float64(self[name]) / 1e6 / n }
	rep.set("minift.ms", ms("minift"))
	rep.set("pl0.ms", ms("pl0"))
	rep.set("ir.parse_ms", ms("ir.parse"))
	rep.set("ir.print_ms", ms("ir.print"))
	rep.set("ssa.build_ms", ms("ssa.build"))
	rep.set("ssa.destruct_ms", ms("ssa.destruct"))
	rep.set("interp.ms", ms("interp"))
	if d := self["interp"].Seconds(); d > 0 {
		rep.set("interp.steps_per_s", float64(rn.steps)/d)
	}
	rep.set("analysis.builds.rpo", float64(rn.builds.RPO)/n)
	rep.set("analysis.builds.dom", float64(rn.builds.Dom)/n)
	rep.set("analysis.builds.loops", float64(rn.builds.Loops)/n)
	rep.set("analysis.builds.liveness", float64(rn.builds.Liveness)/n)
	rep.set("core.alloc_mb", float64(rn.alloc)/(1<<20)/n)

	shares := map[string]float64{}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for name, d := range self {
		shares[name] = float64(d) / float64(total)
	}
	rep.Details["self_time_share"] = shares

	growth := growthPoints(jobs, l, groupOf)
	rep.Details["growth"] = growth
	for _, p := range tracedPasses {
		rep.set("pass."+p+".ms", ms("pass."+p))
		rep.set("pass."+p+".calls", float64(rn.calls[p])/n)
		if c := rn.calls[p]; c > 0 {
			rep.set("pass."+p+".changed_ratio", float64(rn.changed[p])/float64(c))
		}
		var xs, ys []float64
		for _, g := range growth {
			xs = append(xs, g.Instrs)
			ys = append(ys, g.PassMS[p])
		}
		rep.set("pass."+p+".slope", loglogSlope(xs, ys))
	}
	untraced, traced := median(l.jobSecs), median(l.tracedJobSecs)
	rep.set("trace.overhead_pct", 100*(traced-untraced)/untraced)
	rep.Samples["traced_jobs"] = rn.jobs
	rep.Samples["traced_passes"] = len(l.tracedJobSecs)
}

// growthPoint is one point of the growth fit: a group of jobs with its
// mean input size and its mean pass self times per traced pass.
type growthPoint struct {
	Group  string             `json:"group"`
	Jobs   int                `json:"jobs"`
	Instrs float64            `json:"instrs"`
	OptMS  float64            `json:"optimize_ms"`
	PassMS map[string]float64 `json:"pass_ms"`
}

func growthPoints(jobs []job, l *loop, groupOf func(*job) string) []growthPoint {
	idx := map[string]int{}
	var pts []growthPoint
	for i := range jobs {
		runs := l.perJob[i]
		if len(runs) == 0 {
			continue
		}
		g := groupOf(&jobs[i])
		k, ok := idx[g]
		if !ok {
			k = len(pts)
			idx[g] = k
			pts = append(pts, growthPoint{Group: g, PassMS: map[string]float64{}})
		}
		pt := &pts[k]
		pt.Jobs++
		pt.Instrs += float64(jobs[i].Instrs)
		for _, res := range runs {
			for p, d := range res.Pass {
				v := float64(d) / 1e6 / float64(len(runs))
				pt.PassMS[p] += v
				pt.OptMS += v
			}
		}
	}
	for i := range pts {
		pts[i].Instrs /= float64(pts[i].Jobs)
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].Instrs < pts[b].Instrs })
	return pts
}
