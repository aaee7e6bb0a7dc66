package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
)

// rung is one size of the scale ladder: generated programs with
// Blocks body blocks, one per seed.
type rung struct {
	Blocks int
	Seeds  []uint64
}

// scaleLadder doubles the program size from 100 to 400 body blocks
// (about 1.9k to 7.4k instructions).  800 blocks costs tens of seconds
// and gigabytes per program.  The seeds are fixed, not drawn from the
// run's seed: one program's optimization time varies twentyfold with
// its seed at a fixed size, so drawing them would move the metrics more
// than any bound.  Each rung keeps both kinds of program: ones whose
// time SCCP dominates (seed 1 and 8 at 400 blocks take seconds at the
// reassociation level) and ones SCCP folds away or that PRE dominates
// (seed 2 and 6 at 400 blocks).
var scaleLadder = []rung{
	{100, []uint64{1, 3, 5, 8}},
	{200, []uint64{1, 2, 5, 8}},
	{400, []uint64{2, 3, 6, 8}},
}

// scaleTimedLevels are the levels the timed loop runs; the other two
// are optimized and checked once, untimed, for their dyn_ops counts.
var (
	scaleTimedLevels = []core.Level{core.LevelBaseline, core.LevelReassoc}
	scaleCountLevels = []core.Level{core.LevelPartial, core.LevelDist}
)

// scaleLimitMS is the scale workload's latency limit for goodput_rps,
// above the slowest program's time on a 2-CPU machine.
const scaleLimitMS = 10000

// refRun is the unoptimized program's behaviour on one input tuple.
type refRun struct {
	args  []interp.Value
	ret   interp.Value
	out   []interp.Value
	mem   []byte
	steps int64
}

// scaleConfig returns the generator configuration for one rung.
func scaleConfig(blocks int) progen.Config {
	c := progen.Default()
	c.Blocks = blocks
	c.BlockInstrs = 10
	return c
}

// scaleJobs generates the ladder's programs and their reference runs
// and builds one job per program and level.
func scaleJobs(ladder []rung, levels []core.Level) ([]job, error) {
	var jobs []job
	for _, r := range ladder {
		for _, seed := range r.Seeds {
			prog := progen.Generate(scaleConfig(r.Blocks), seed)
			src := prog.String()
			refs, err := referenceRuns(prog)
			if err != nil {
				return nil, fmt.Errorf("progen %d/%d: %w", r.Blocks, seed, err)
			}
			for _, lv := range levels {
				tol, exactMem := 0.0, true
				if lv == core.LevelReassoc || lv == core.LevelDist {
					// Reassociation may change float rounding.
					tol, exactMem = 1e-6, false
				}
				jobs = append(jobs, job{
					Name: fmt.Sprintf("progen-%d-%d", r.Blocks, seed), Lang: "iloc",
					Source: src, Level: lv, Parse: true, Instrs: prog.InstrCount(), Size: r.Blocks,
					check: func(p *ir.Program, call caller) (int64, error) {
						return compareRuns(p, refs, tol, exactMem, call)
					},
				})
			}
		}
	}
	return jobs, nil
}

// referenceRuns interprets the unoptimized program on the checker's
// standard input tuples.
func referenceRuns(prog *ir.Program) ([]refRun, error) {
	var refs []refRun
	for _, args := range check.ProgramInputs(prog, "main", 3) {
		m := interp.NewMachine(prog)
		ret, err := m.Call("main", args...)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		refs = append(refs, refRun{args: args, ret: ret, out: m.Output, mem: m.Mem, steps: m.Steps})
	}
	if len(refs) == 0 {
		return nil, errors.New("no input tuples")
	}
	return refs, nil
}

// compareRuns interprets an optimized program on every reference input
// and returns the operations it executed in total.
func compareRuns(p *ir.Program, refs []refRun, tol float64, exactMem bool, call caller) (int64, error) {
	var steps int64
	for _, ref := range refs {
		m := interp.NewMachine(p)
		// Optimization never makes a program run 4x longer; past this
		// budget the optimized code loops where the original did not.
		m.MaxSteps = 4*ref.steps + 4096
		got, err := call(m, "main", ref.args)
		if err != nil {
			return 0, fmt.Errorf("on input %v: %w", ref.args, err)
		}
		if !check.ValuesAgree(ref.ret, got, tol) {
			return 0, fmt.Errorf("on input %v: result %s, want %s", ref.args, got, ref.ret)
		}
		if len(m.Output) != len(ref.out) {
			return 0, fmt.Errorf("on input %v: printed %d values, want %d", ref.args, len(m.Output), len(ref.out))
		}
		for i := range ref.out {
			if !check.ValuesAgree(ref.out[i], m.Output[i], tol) {
				return 0, fmt.Errorf("on input %v: printed value %d is %s, want %s", ref.args, i, m.Output[i], ref.out[i])
			}
		}
		if exactMem && !bytes.Equal(ref.mem, m.Mem) {
			return 0, fmt.Errorf("on input %v: final memory differs", ref.args)
		}
		steps += m.Steps
	}
	return steps, nil
}

// runScale is the size-ladder workload: the suite's job loop over
// generated programs parsed from ILOC text on each job.
func runScale(cfg runConfig, rep *report) error {
	return runLadder(cfg, rep, scaleLadder)
}

func runLadder(cfg runConfig, rep *report, ladder []rung) error {
	var jobs, countJobs []job
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		var err error
		if jobs, err = scaleJobs(ladder, scaleTimedLevels); err != nil {
			return err
		}
		if countJobs, err = scaleJobs(ladder, scaleCountLevels); err != nil {
			return err
		}
		times = append(times, since(t)*rep.cal.factor())
	}
	rep.set("setup_s", median(times))
	rep.Samples["setup_s"] = len(times)
	rep.Details["ladder"] = ladder

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	l, rn := measure(jobs, cfg.Seconds, rng, tr, rep, true)
	counted := countOnce(countJobs, rep)
	setCounts(rep, append(jobs, countJobs...), append(l.first, counted...))
	if tr == nil {
		// Segments of four passes: the tail is the eleventh slowest of
		// 96 jobs whatever the number of passes.
		setJobMetrics(rep, jobs, l, scaleLimitMS, 4)
		// The peak is that of the job with the highest median peak.
		peak := 0.0
		for _, v := range l.jobRSS {
			peak = max(peak, median(v))
		}
		rep.set("peak_rss_mb", peak)
	} else {
		setLayerMetrics(rep, jobs, l, rn, tr, func(j *job) string { return fmt.Sprint(j.Size) })
		rep.Details["growth_by_program"] = growthPoints(jobs, l, func(j *job) string { return j.Name })
		if err := writeSpans(cfg, tr); err != nil {
			return err
		}
	}
	return nil
}
