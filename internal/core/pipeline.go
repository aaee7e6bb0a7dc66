package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/check"
	"repro/internal/coalesce"
	"repro/internal/cse"
	"repro/internal/dce"
	"repro/internal/gvn"
	"repro/internal/ir"
	"repro/internal/lospre"
	"repro/internal/lvn"
	"repro/internal/peephole"
	"repro/internal/pre"
	"repro/internal/reassoc"
	"repro/internal/sccp"
	"repro/internal/strength"
)

// Level names one of the paper's Table 1 optimization levels.
type Level string

// The four levels of Table 1, in order of increasing transformation.
const (
	// LevelNone performs no optimization at all (not in Table 1; the
	// raw front-end output, useful for debugging and ablations).
	LevelNone Level = "none"
	// LevelBaseline is "a sequence of global constant propagation,
	// global peephole optimization, global dead code elimination,
	// coalescing, and a final pass to eliminate empty basic blocks".
	LevelBaseline Level = "baseline"
	// LevelPartial adds PRE before the baseline sequence.
	LevelPartial Level = "partial"
	// LevelReassoc runs global reassociation (without distribution)
	// and global value numbering before PRE and the baseline.
	LevelReassoc Level = "reassociation"
	// LevelDist is LevelReassoc with distribution of multiplication
	// over addition enabled.
	LevelDist Level = "distribution"
)

// Levels lists the Table 1 levels in presentation order.
var Levels = []Level{LevelBaseline, LevelPartial, LevelReassoc, LevelDist}

// GVNBackend selects the analysis behind the pipeline's value-numbering
// slot.  Both backends share the renaming transformation (classes →
// representative registers); they differ only in which congruences the
// analysis proves.
type GVNBackend string

const (
	// GVNAWZ is the paper's backend: Alpern–Wegman–Zadeck partition
	// refinement, "the simplest variation" (§4).  The zero value of
	// GVNBackend behaves as GVNAWZ everywhere.
	GVNAWZ GVNBackend = "awz"
	// GVNPrecise is the sparse iterative value-expression analysis with
	// value-φ folding (fold/compose rules); it proves strictly more
	// congruences — every AWZ congruence plus those that flow through
	// φs (φ(x,x) ≡ x, φ(x+1,y+1) ≡ φ(x,y)+1) and commutations.
	GVNPrecise GVNBackend = "precise"
)

// GVNBackends lists the selectable backends in presentation order.
var GVNBackends = []GVNBackend{GVNAWZ, GVNPrecise}

// ParseGVNBackend maps a -gvn flag value to a backend; the empty string
// selects the default (AWZ).
func ParseGVNBackend(s string) (GVNBackend, error) {
	switch s {
	case "", "awz":
		return GVNAWZ, nil
	case "precise":
		return GVNPrecise, nil
	}
	return "", fmt.Errorf("core: unknown GVN backend %q (want awz or precise)", s)
}

// orDefault folds the zero value into the default backend.
func (b GVNBackend) orDefault() GVNBackend {
	if b == "" {
		return GVNAWZ
	}
	return b
}

// PassName is the pipeline pass implementing this backend.
func (b GVNBackend) PassName() string {
	if b.orDefault() == GVNPrecise {
		return "gvn-precise"
	}
	return "gvn"
}

// PREBackend selects the algorithm behind the pipeline's redundancy-
// elimination slot.  Both backends eliminate partial redundancies
// by inserting computations and rewriting occurrences into copies; they
// differ in placement strategy and safety envelope.
type PREBackend string

const (
	// PREDrechsler is the paper's backend: the Drechsler–Stadel
	// edge-placement variant of Morel–Renvoise PRE (internal/pre),
	// with the Mode A naming discipline.  The zero value of PREBackend
	// behaves as PREDrechsler everywhere.
	PREDrechsler PREBackend = "drechsler"
	// PRELospre is speculative PRE as a per-expression minimum cut
	// (internal/lospre): it may insert on paths that never computed
	// the expression when the frequency model says that is cheaper,
	// restricted to operations that cannot trap.
	PRELospre PREBackend = "lospre"
)

// PREBackends lists the selectable backends in presentation order.
var PREBackends = []PREBackend{PREDrechsler, PRELospre}

// ParsePREBackend maps a -pre flag value to a backend; the empty string
// selects the default (Drechsler–Stadel).
func ParsePREBackend(s string) (PREBackend, error) {
	switch s {
	case "", "drechsler":
		return PREDrechsler, nil
	case "lospre":
		return PRELospre, nil
	}
	return "", fmt.Errorf("core: unknown PRE backend %q (want drechsler or lospre)", s)
}

// orDefault folds the zero value into the default backend.
func (b PREBackend) orDefault() PREBackend {
	if b == "" {
		return PREDrechsler
	}
	return b
}

// PassName is the pipeline pass implementing this backend.
func (b PREBackend) PassName() string {
	if b.orDefault() == PRELospre {
		return "pre-lospre"
	}
	return "pre"
}

// ParseLevel maps a level name (or its common abbreviations) to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none", "raw":
		return LevelNone, nil
	case "baseline", "base":
		return LevelBaseline, nil
	case "partial", "pre":
		return LevelPartial, nil
	case "reassociation", "reassoc":
		return LevelReassoc, nil
	case "distribution", "dist":
		return LevelDist, nil
	}
	return "", fmt.Errorf("core: unknown optimization level %q", s)
}

// PassContext carries everything a pass application needs: the function
// under optimization, a cancellation context, and the function's shared
// analysis cache.  Passes pull dominators, liveness, loops and reverse
// postorder from Analyses instead of rebuilding them, and the cache
// invalidates itself from the function's mutation generations.
type PassContext struct {
	Ctx      context.Context
	Func     *ir.Func
	Analyses *analysis.Cache
}

// Analysis names usable in Pass.Preserves.
const (
	// PreservesCFG declares that the pass never changes the block/edge
	// structure, so reverse postorder, dominators and loops stay valid.
	PreservesCFG = "cfg"
	// PreservesLiveness declares that the pass never changes
	// instructions at all, so even liveness stays valid.
	PreservesLiveness = "liveness"
)

// Pass is one optimizer phase: a named transformation over a function,
// mirroring the paper's structure of the optimizer as "a sequence of
// passes, where each pass is a Unix filter" (§4).
//
// Run reports whether it changed the function; false lets the pipeline
// skip post-pass verification and lets fixpoint drivers terminate.
// Reporting true conservatively is always sound.  Preserves is the
// pass's declared worst-case invalidation contract — the analyses it
// never invalidates on any input.  It is folded into PipelineVersion
// (a contract change must invalidate content-addressed result caches)
// and enforced by tests against the observed mutation generations; the
// pipeline itself trusts the generations, not the declaration.
type Pass struct {
	Name      string
	Preserves []string
	Run       func(*PassContext) bool
}

var (
	passIndexOnce sync.Once
	passIndex     map[string]Pass
)

// PassByName returns a single pass for the filter tool; see AllPasses.
func PassByName(name string) (Pass, error) {
	passIndexOnce.Do(func() {
		passIndex = make(map[string]Pass)
		for _, p := range AllPasses() {
			passIndex[p.Name] = p
		}
	})
	p, ok := passIndex[name]
	if !ok {
		return Pass{}, fmt.Errorf("core: unknown pass %q", name)
	}
	return p, nil
}

// AllPasses enumerates every individually runnable pass.
func AllPasses() []Pass {
	// Shared Preserves values.  A pass listing PreservesCFG keeps the
	// block/edge structure intact on every input; one listing both
	// never mutates at all.
	cfgOnly := []string{PreservesCFG}
	readOnly := []string{PreservesCFG, PreservesLiveness}
	return []Pass{
		{"sccp", nil, func(pc *PassContext) bool {
			return sccp.RunWith(pc.Func, pc.Analyses).Changed()
		}},
		{"peephole", cfgOnly, func(pc *PassContext) bool {
			return peephole.Run(pc.Func, peephole.Options{}).Changed()
		}},
		{"peephole-shift", cfgOnly, func(pc *PassContext) bool {
			return peephole.Run(pc.Func, peephole.Options{MulToShift: true}).Changed()
		}},
		{"dce", cfgOnly, func(pc *PassContext) bool {
			return dce.RunWith(pc.Func, pc.Analyses).Removed > 0
		}},
		{"coalesce", cfgOnly, func(pc *PassContext) bool {
			st := coalesce.RunWith(pc.Func, pc.Analyses)
			return st.Coalesced+st.SelfCopy > 0
		}},
		{"emptyblocks", nil, func(pc *PassContext) bool {
			n := pc.Analyses.RemoveUnreachable()
			n += cfg.RemoveEmptyBlocks(pc.Func)
			n += cfg.MergeStraightLine(pc.Func)
			return n > 0
		}},
		{"normalize", cfgOnly, func(pc *PassContext) bool {
			return Normalize(pc.Func).Changed()
		}},
		{"pre", nil, func(pc *PassContext) bool {
			return pre.RunToFixpointWith(pc.Func, pc.Analyses).Mutated()
		}},
		{"pre-lospre", nil, func(pc *PassContext) bool {
			return lospre.RunToFixpointWith(pc.Func, pc.Analyses).Mutated()
		}},
		// gvn, reassoc and strength rebuild the function through an
		// SSA round-trip, which renames registers wholesale even when
		// no optimization fires; they always report changed.
		{"gvn", nil, func(pc *PassContext) bool {
			gvn.RunWith(pc.Func, pc.Analyses)
			return true
		}},
		{"gvn-precise", nil, func(pc *PassContext) bool {
			gvn.RunPreciseWith(pc.Func, pc.Analyses)
			return true
		}},
		{"reassoc", nil, func(pc *PassContext) bool {
			reassoc.RunWith(pc.Func, reassoc.Options{AllowFloat: true}, pc.Analyses)
			return true
		}},
		{"reassoc-dist", nil, func(pc *PassContext) bool {
			reassoc.RunWith(pc.Func, reassoc.Options{Distribute: true, AllowFloat: true}, pc.Analyses)
			return true
		}},
		{"cse-dom", nil, func(pc *PassContext) bool {
			return cse.RunDominatorWith(pc.Func, pc.Analyses).Changed()
		}},
		{"cse-avail", nil, func(pc *PassContext) bool {
			return cse.RunAvailWith(pc.Func, pc.Analyses).Changed()
		}},
		// Extensions: the two passes the paper reports missing (§4.1)
		// and expects to compose with reassociation (§5.2).
		{"lvn", cfgOnly, func(pc *PassContext) bool {
			return lvn.Run(pc.Func).Changed()
		}},
		{"strength", nil, func(pc *PassContext) bool {
			strength.RunWith(pc.Func, pc.Analyses)
			return true
		}},
		// Diagnostic pass: transforms nothing, runs the semantic
		// checkers and reports findings on stderr.  In a filter
		// pipeline it acts as an assertion stage (cmd/ilocfilter gives
		// it a failing exit status on errors).
		{"check", readOnly, func(pc *PassContext) bool {
			check.Report(os.Stderr, checkFunc(pc))
			return false
		}},
	}
}

// checkFunc runs the semantic checkers for the check pass through the
// shared analysis cache.
func checkFunc(pc *PassContext) []check.Diagnostic {
	return check.FuncWith(pc.Func, check.Options{}, pc.Analyses)
}

// baselineTail is the paper's baseline sequence, run at the end of
// every level.
func baselineTail() []string {
	return []string{"sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce"}
}

// PassNames returns the pass sequence for a level with the default
// backends (AWZ value numbering, Drechsler–Stadel PRE).
func PassNames(level Level) []string { return PassNamesWith(level, GVNAWZ, PREDrechsler) }

// PassNamesWith returns the pass sequence for a level with the given
// backends filling the pipeline's GVN and PRE slots.  Levels without a
// slot are identical across that slot's backends: baseline has neither,
// partial has only the PRE slot.
func PassNamesWith(level Level, gvn GVNBackend, pre PREBackend) []string {
	g := gvn.PassName()
	p := pre.PassName()
	switch level {
	case LevelNone:
		return nil
	case LevelBaseline:
		return baselineTail()
	case LevelPartial:
		return append([]string{"normalize", p}, baselineTail()...)
	case LevelReassoc:
		return append([]string{"reassoc", g, "normalize", p}, baselineTail()...)
	case LevelDist:
		return append([]string{"reassoc-dist", g, "normalize", p}, baselineTail()...)
	}
	return nil
}

// PipelineVersion is a fingerprint of the optimizer's pass pipelines:
// a hash over every level's pass sequence and the full pass inventory
// with each pass's preservation contract.  Content-addressed caches
// fold it into their keys so a cached result is invalidated
// automatically whenever a pass is added, removed, resequenced, or its
// invalidation contract changes.  It is deterministic across processes
// and runs.
func PipelineVersion() string { return PipelineVersionFor(GVNAWZ, PREDrechsler) }

// PipelineVersionFor is the pipeline fingerprint with the given GVN and
// PRE backends selected.  Each backend changes some level's pass
// sequence (and both are hashed explicitly besides), so distinct
// backend combinations always fingerprint differently and a
// content-addressed cache can never serve one combination's result for
// another's request.
func PipelineVersionFor(gvn GVNBackend, pre PREBackend) string {
	return pipelineVersion(AllPasses(), gvn, pre)
}

// pipelineVersion computes the fingerprint over a given pass inventory;
// split out so tests can prove the hash is sensitive to contract edits.
func pipelineVersion(passes []Pass, gvn GVNBackend, pre PREBackend) string {
	h := sha256.New()
	io.WriteString(h, "gvn-backend:")
	io.WriteString(h, string(gvn.orDefault()))
	io.WriteString(h, "\n")
	io.WriteString(h, "pre-backend:")
	io.WriteString(h, string(pre.orDefault()))
	io.WriteString(h, "\n")
	for _, l := range append([]Level{LevelNone}, Levels...) {
		io.WriteString(h, string(l))
		for _, name := range PassNamesWith(l, gvn, pre) {
			io.WriteString(h, ":")
			io.WriteString(h, name)
		}
		io.WriteString(h, "\n")
	}
	for _, p := range passes {
		io.WriteString(h, p.Name)
		for _, a := range p.Preserves {
			io.WriteString(h, " preserves:")
			io.WriteString(h, a)
		}
		io.WriteString(h, "\n")
	}
	return "epre-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// PassInfo describes one pass application, delivered to
// OptimizeOptions.OnPass.
type PassInfo struct {
	Func     string
	Pass     string
	Duration time.Duration
	// Changed is the pass's own report of whether it modified the
	// function.
	Changed bool
	// Builds counts the analyses the shared cache had to (re)build
	// during this pass — cache misses, not total queries.
	Builds analysis.BuildCounts
}

// OptimizeOptions tune OptimizeWith beyond the level itself.  The zero
// value reproduces plain Optimize: background context, serial, no
// instrumentation, shared analyses, single pipeline sweep.
type OptimizeOptions struct {
	// Ctx, when non-nil, is checked between passes and plumbed into
	// any checked-mode differential interpretation; optimization stops
	// with an error wrapping ctx.Err() once it is done.
	Ctx context.Context
	// Workers bounds function-level parallelism: up to Workers
	// functions are optimized concurrently, each running the full pass
	// sequence on its own function.  Values <= 1 mean serial; values
	// above GOMAXPROCS are clamped to it.  The result is byte-identical
	// to the serial run — functions are optimized independently in both
	// cases and the output order is the program's function order.
	Workers int
	// OnPass, when non-nil, observes every pass application.  It may
	// be called from multiple goroutines concurrently when Workers > 1
	// and must be safe for that.
	OnPass func(PassInfo)
	// FreshAnalyses gives every pass a brand-new analysis cache,
	// reproducing the pre-cache behavior where each pass rebuilt its
	// own dominators and liveness.  Used by benchmarks to measure the
	// cache's effect; the optimized output is identical either way.
	FreshAnalyses bool
	// TailFixpoint re-runs the baseline tail after the level's normal
	// sequence until no tail pass reports a change (bounded by
	// MaxTailRounds).  The default single sweep matches the paper.
	TailFixpoint bool
	// GVN selects the value-numbering backend filling the pipeline's
	// GVN slot at the reassociation levels.  The zero value is GVNAWZ,
	// the paper's configuration.
	GVN GVNBackend
	// PRE selects the redundancy-elimination backend filling the
	// pipeline's PRE slot at the partial level and above.  The zero
	// value is PREDrechsler, the paper's configuration.
	PRE PREBackend
}

// MaxTailRounds bounds OptimizeOptions.TailFixpoint iteration.
const MaxTailRounds = 8

func (o OptimizeOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o OptimizeOptions) workers(nfuncs int) int {
	w := o.Workers
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w > nfuncs {
		w = nfuncs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// OptimizeFunc applies a level's pass sequence to one function.
func OptimizeFunc(f *ir.Func, level Level) error {
	return optimizeFunc(context.Background(), f, level, OptimizeOptions{})
}

func optimizeFunc(ctx context.Context, f *ir.Func, level Level, opts OptimizeOptions) error {
	pc := &PassContext{Ctx: ctx, Func: f, Analyses: analysis.NewCache(f)}
	runPass := func(name string) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("before pass %s: %w", name, err)
		}
		p, err := PassByName(name)
		if err != nil {
			return false, err
		}
		if opts.FreshAnalyses {
			pc.Analyses = analysis.NewCache(f)
		}
		before := pc.Analyses.Counts()
		start := time.Now()
		changed := p.Run(pc)
		if opts.OnPass != nil {
			opts.OnPass(PassInfo{
				Func:     f.Name,
				Pass:     name,
				Duration: time.Since(start),
				Changed:  changed,
				Builds:   pc.Analyses.Counts().Sub(before),
			})
		}
		// A pass that reports no change cannot have invalidated the
		// verified invariants; skip re-verification.
		if changed {
			if err := ir.Verify(f); err != nil {
				return changed, fmt.Errorf("after pass %s: %w", name, err)
			}
		}
		return changed, nil
	}

	for _, name := range PassNamesWith(level, opts.GVN, opts.PRE) {
		if _, err := runPass(name); err != nil {
			return err
		}
	}
	if opts.TailFixpoint && level != LevelNone {
		for round := 0; round < MaxTailRounds; round++ {
			anyChanged := false
			for _, name := range baselineTail() {
				changed, err := runPass(name)
				if err != nil {
					return err
				}
				anyChanged = anyChanged || changed
			}
			if !anyChanged {
				break
			}
		}
	}
	return nil
}

// Optimize applies a level to every function of a program, returning a
// new program (the input is not modified).  With EPRE_CHECK=1 in the
// environment every pass application is additionally checked by the
// internal/check analyzers (see CheckedOptimize) and any error
// diagnostic fails the optimization.
//
// Optimize (and OptimizeWith) is safe for concurrent use on distinct
// programs: the passes keep all scratch state per invocation and the
// input program is cloned before any transformation.
func Optimize(p *ir.Program, level Level) (*ir.Program, error) {
	return OptimizeWith(p, level, OptimizeOptions{})
}

// OptimizeWith is Optimize with a context, optional function-level
// parallelism and per-pass instrumentation; see OptimizeOptions.
func OptimizeWith(p *ir.Program, level Level, opts OptimizeOptions) (*ir.Program, error) {
	ctx := opts.ctx()
	if CheckEnabled() {
		// Checked mode validates whole-program snapshots around every
		// pass, so it stays serial at pass granularity.
		return checkedOptimizeStrict(ctx, p, level, opts.GVN, opts.PRE)
	}
	out := p.Clone()
	workers := opts.workers(len(out.Funcs))
	if workers <= 1 {
		for _, f := range out.Funcs {
			if err := optimizeFunc(ctx, f, level, opts); err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
		}
		return out, nil
	}

	// Fixed worker pool: exactly `workers` goroutines drain a function
	// channel, so a 10,000-function program never spawns 10,000
	// goroutines, and dispatch stops at the first error instead of
	// feeding work that will be thrown away.
	var (
		wg       sync.WaitGroup
		work     = make(chan *ir.Func)
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				if failed() {
					continue // drain remaining work without running it
				}
				if err := optimizeFunc(ctx, f, level, opts); err != nil {
					fail(fmt.Errorf("%s: %w", f.Name, err))
				}
			}
		}()
	}
	for _, f := range out.Funcs {
		if failed() {
			break
		}
		work <- f
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
