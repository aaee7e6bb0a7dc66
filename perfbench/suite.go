package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/suite"
)

// suiteLimitMS is the suite's latency limit for goodput_rps.  The
// slowest routine's job takes a few milliseconds on a 2-CPU machine.
const suiteLimitMS = 50

// suiteJobs builds one job per suite routine and level, in canonical
// order, each checked against the routine's Go reference.
func suiteJobs() ([]job, error) {
	var jobs []job
	for _, rt := range suite.All() {
		rt := rt
		l, err := lang.Detect(rt.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rt.Name, err)
		}
		prog, err := rt.Compile()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rt.Name, err)
		}
		check := func(p *ir.Program, call caller) (int64, error) {
			m := interp.NewMachine(p)
			v, err := call(m, rt.Driver, rt.Args)
			if err != nil {
				return 0, err
			}
			return m.Steps, rt.Check(v)
		}
		for _, lv := range core.Levels {
			jobs = append(jobs, job{
				Name: rt.Name, Lang: l.Name, Source: rt.Source, Level: lv,
				Instrs: prog.InstrCount(), check: check,
			})
		}
	}
	return jobs, nil
}

// setupSuite builds the job list and runs one untimed warm-up pass,
// setupRepeats times; it returns the jobs and the median set-up time.
func setupSuite(rep *report) ([]job, error) {
	var jobs []job
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		var err error
		if jobs, err = suiteJobs(); err != nil {
			return nil, err
		}
		countOnce(jobs, rep)
		times = append(times, since(t)*rep.cal.factor())
	}
	rep.set("setup_s", median(times))
	rep.Samples["setup_s"] = len(times)
	return jobs, nil
}

// runSuite is the paper-corpus workload: every suite routine at all
// four levels, closed loop on one goroutine.
func runSuite(cfg runConfig, rep *report) error {
	jobs, err := setupSuite(rep)
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	l, rn := measure(jobs, cfg.Seconds, rng, tr, rep, false)
	setCounts(rep, jobs, l.first)
	if tr == nil {
		// Segments of eleven passes, about 2,000 jobs: each segment's
		// tail is its 99.5th percentile.
		setJobMetrics(rep, jobs, l, suiteLimitMS, 11)
	} else {
		setLayerMetrics(rep, jobs, l, rn, tr, func(j *job) string { return j.Name })
		if err := writeSpans(cfg, tr); err != nil {
			return err
		}
	}
	rep.set("peak_rss_mb", peakRSSMB())
	return nil
}
