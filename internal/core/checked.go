package core

import (
	"context"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/ir"
)

// CheckEnv is the environment variable that turns every Optimize call
// into a CheckedOptimize call: set EPRE_CHECK=1 and the whole stack —
// the public API, cmd/epre, the table harnesses — sandwiches every pass
// between semantic checks and fails on any error diagnostic.
const CheckEnv = "EPRE_CHECK"

// CheckEnabled reports whether the EPRE_CHECK environment variable
// requests checked optimization.
func CheckEnabled() bool {
	v := os.Getenv(CheckEnv)
	return v != "" && v != "0"
}

// CheckConfig tunes the per-pass checking of CheckedRun.
type CheckConfig struct {
	// Validate enables translation validation (differential
	// interpretation) for every pass application.  The dataflow/SSA
	// verifier always runs; validation is the expensive part.
	Validate bool
	// MaxInputs and MaxSteps bound each validation (see
	// check.ValidateOptions).
	MaxInputs int
	MaxSteps  int64
}

// DefaultCheckConfig enables full checking with the default budgets.
func DefaultCheckConfig() CheckConfig { return CheckConfig{Validate: true} }

// reassociating names the passes that may legitimately change
// floating-point rounding; translation validation compares their float
// results within a relative tolerance instead of bit-exactly.
func reassociating(pass string) bool {
	return strings.HasPrefix(pass, "reassoc")
}

// reassocFloatTol is the relative tolerance granted to reassociating
// passes, matching the suite's validation tolerance.
const reassocFloatTol = 1e-6

// CheckedOptimize is Optimize with every pass application sandwiched
// between semantic checks; see CheckedRun.
func CheckedOptimize(p *ir.Program, level Level) (*ir.Program, []check.Diagnostic, error) {
	return CheckedOptimizeCtx(context.Background(), p, level)
}

// CheckedOptimizeCtx is CheckedOptimize under a context: the per-pass
// differential interpretation polls the context, so a request deadline
// bounds even the checker's reference executions.  On expiry it returns
// an error wrapping ctx.Err().
func CheckedOptimizeCtx(ctx context.Context, p *ir.Program, level Level) (*ir.Program, []check.Diagnostic, error) {
	return CheckedOptimizeFor(ctx, p, level, PREDrechsler)
}

// CheckedOptimizeFor is CheckedOptimizeCtx with an explicit PRE
// backend filling the pipeline's PRE slot, so checked mode covers every
// backend with the same per-pass translation validation.
func CheckedOptimizeFor(ctx context.Context, p *ir.Program, level Level, pre PREBackend) (*ir.Program, []check.Diagnostic, error) {
	passes, err := passesForLevel(level, pre)
	if err != nil {
		return nil, nil, err
	}
	return CheckedRunCtx(ctx, p, passes, DefaultCheckConfig())
}

func passesForLevel(level Level, pre PREBackend) ([]Pass, error) {
	var passes []Pass
	for _, name := range PassNamesWith(level, pre) {
		p, err := PassByName(name)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// CheckedRun applies a pass sequence to a copy of the program, checking
// each pass application three ways:
//
//  1. ir.Verify — the structural invariants (a hard error, as in
//     OptimizeFunc);
//  2. check.DefUse — every register use is dominated by a definition;
//  3. check.ValidatePass — translation validation by differential
//     interpretation, with a congruence fast path (when cfg.Validate).
//
// Diagnostics accumulate across passes, each tagged with the pass that
// produced it; the transformed program is returned alongside them so
// callers can decide whether error diagnostics are fatal.  The error
// return is reserved for unknown passes and structural verification
// failures.
func CheckedRun(p *ir.Program, passes []Pass, cfg CheckConfig) (*ir.Program, []check.Diagnostic, error) {
	return CheckedRunCtx(context.Background(), p, passes, cfg)
}

// CheckedRunCtx is CheckedRun under a context.  The context is checked
// between passes and threaded into the differential interpreter, so a
// deadline produces a clean timeout error (wrapping ctx.Err()) rather
// than an unbounded validation run or a spurious miscompile diagnostic.
func CheckedRunCtx(ctx context.Context, p *ir.Program, passes []Pass, cfg CheckConfig) (*ir.Program, []check.Diagnostic, error) {
	out := p.Clone()
	var diags []check.Diagnostic
	// One analysis cache per function, shared across all passes of the
	// run; checkedOnce[i] records that function i has passed DefUse at
	// least once, so passes that report no change can skip re-proving
	// the same property over identical code.
	caches := make([]*analysis.Cache, len(out.Funcs))
	for i, f := range out.Funcs {
		caches[i] = analysis.NewCache(f)
	}
	checkedOnce := make([]bool, len(out.Funcs))
	for _, pass := range passes {
		if err := ctx.Err(); err != nil {
			return nil, diags, fmt.Errorf("core: checked run cancelled before pass %s: %w", pass.Name, err)
		}
		var before *ir.Program
		if cfg.Validate {
			before = out.Clone()
		}
		anyChanged := false
		changedFn := make([]bool, len(out.Funcs))
		for i, f := range out.Funcs {
			pc := &PassContext{Ctx: ctx, Func: f, Analyses: caches[i]}
			changedFn[i] = pass.Run(pc)
			anyChanged = anyChanged || changedFn[i]
			if changedFn[i] {
				if err := ir.Verify(f); err != nil {
					return nil, diags, fmt.Errorf("after pass %s: %w", pass.Name, err)
				}
			}
		}
		for i, f := range out.Funcs {
			if checkedOnce[i] && !changedFn[i] {
				continue // unchanged since its last clean DefUse proof
			}
			fd := check.TagPass(check.DefUseWith(f, false, caches[i]), pass.Name)
			diags = append(diags, fd...)
			checkedOnce[i] = len(check.Errors(fd)) == 0
		}
		if cfg.Validate && anyChanged {
			opt := check.ValidateOptions{Ctx: ctx, MaxInputs: cfg.MaxInputs, MaxSteps: cfg.MaxSteps}
			if reassociating(pass.Name) {
				opt.FloatTol = reassocFloatTol
			}
			diags = append(diags, check.ValidatePass(before, out, pass.Name, opt)...)
			if err := ctx.Err(); err != nil {
				return nil, diags, fmt.Errorf("core: checked run cancelled validating pass %s: %w", pass.Name, err)
			}
		}
	}
	return out, diags, nil
}

// checkedOptimizeStrict runs CheckedOptimize and converts error
// diagnostics into a hard error; this is the EPRE_CHECK=1 path of
// Optimize.
func checkedOptimizeStrict(ctx context.Context, p *ir.Program, level Level, pre PREBackend) (*ir.Program, error) {
	out, diags, err := CheckedOptimizeFor(ctx, p, level, pre)
	if err != nil {
		return nil, err
	}
	if errs := check.Errors(diags); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, d := range errs {
			msgs[i] = d.String()
		}
		return nil, fmt.Errorf("core: checked optimize at %s: %s", level, strings.Join(msgs, "; "))
	}
	return out, nil
}
