package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/progen"
)

// smallConfig keeps test programs quick to generate and interpret.
func smallConfig() *progen.Config {
	cfg := progen.Default()
	cfg.Blocks = 4
	cfg.BlockInstrs = 5
	cfg.Fuel = 16
	return &cfg
}

// TestCleanPipeline runs the real optimizer over a batch of programs
// and expects zero failures: the repo's own pipeline must be clean.
func TestCleanPipeline(t *testing.T) {
	rep, err := Run(Options{Seed: 1, N: 25, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Programs != 25 {
		t.Fatalf("tested %d programs, want 25", rep.Programs)
	}
	for _, f := range rep.Failures {
		t.Errorf("unexpected failure: %s\n%s", f.String(), f.Program)
	}
}

// TestGVNDiffMode: cross-backend differential fuzzing — both GVN
// backends over the same programs, zero divergence expected from the
// repo's own pipeline, and the mode doubles only the levels that have
// a value-numbering slot.
func TestGVNDiffMode(t *testing.T) {
	rep, err := Run(Options{Seed: 1, N: 25, Workers: 4, GVNDiff: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Programs != 25 {
		t.Fatalf("tested %d programs, want 25", rep.Programs)
	}
	for _, f := range rep.Failures {
		t.Errorf("cross-backend divergence: %s\n%s", f.String(), f.Program)
	}

	// The backend fan-out applies exactly to the GVN-slot levels.
	var o Options
	o.GVNDiff = true
	for _, l := range core.Levels {
		got := len(o.variants(l))
		want := 1
		if l == core.LevelReassoc || l == core.LevelDist {
			want = 2
		}
		if got != want {
			t.Errorf("%s: tested with %d variants, want %d", l, got, want)
		}
	}
	if len(Options{}.variants(core.LevelDist)) != 1 {
		t.Error("GVNDiff off must test a single variant")
	}

	// A custom pipeline has no backend dimension; combining it with
	// GVNDiff must be rejected, not silently degraded.
	if _, err := Run(Options{N: 1, GVNDiff: true, Optimize: sabotage(core.LevelDist)}); err == nil {
		t.Error("GVNDiff with custom Optimize did not error")
	}
}

// TestPREDiffMode: cross-backend differential fuzzing over the two
// PRE backends — zero divergence expected from the repo's own pipeline,
// the fan-out applies exactly to the PRE-slot levels, and combining
// with GVNDiff tests the full backend product.
func TestPREDiffMode(t *testing.T) {
	rep, err := Run(Options{Seed: 1, N: 25, Workers: 4, PREDiff: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Programs != 25 {
		t.Fatalf("tested %d programs, want 25", rep.Programs)
	}
	for _, f := range rep.Failures {
		t.Errorf("cross-backend divergence: %s\n%s", f.String(), f.Program)
	}

	var o Options
	o.PREDiff = true
	for _, l := range core.Levels {
		got := len(o.variants(l))
		want := 1
		if l != core.LevelBaseline {
			want = 2
		}
		if got != want {
			t.Errorf("%s: tested with %d variants, want %d", l, got, want)
		}
	}
	o.GVNDiff = true
	if got := len(o.variants(core.LevelDist)); got != 4 {
		t.Errorf("GVNDiff+PREDiff at dist: %d variants, want the full 2x2 product", got)
	}
	if got := len(o.variants(core.LevelPartial)); got != 2 {
		t.Errorf("GVNDiff+PREDiff at partial: %d variants, want 2 (no GVN slot)", got)
	}

	if _, err := Run(Options{N: 1, PREDiff: true, Optimize: sabotage(core.LevelPartial)}); err == nil {
		t.Error("PREDiff with custom Optimize did not error")
	}
}

// TestPREDiffTagsBackend: a miscompile in PREDiff mode carries the PRE
// backend tag through the failure string and artifact naming.
func TestPREDiffTagsBackend(t *testing.T) {
	cfg := smallConfig()
	var f *Failure
	for seed := uint64(1); seed <= 20 && f == nil; seed++ {
		prog := progen.Generate(*cfg, seed)
		refs := referenceRuns(context.Background(), prog, 1<<20)
		f = testLevel(context.Background(), prog, refs, seed, core.LevelPartial,
			variant{core.GVNAWZ, core.PRELospre},
			Options{PREDiff: true, Optimize: sabotage(core.LevelPartial)})
	}
	if f == nil {
		t.Fatal("sabotaged pipeline not caught on any of 20 seeds")
	}
	if f.PRE != core.PRELospre {
		t.Errorf("failure PRE tag = %q, want lospre", f.PRE)
	}
	if !strings.Contains(f.String(), "pre=lospre") {
		t.Errorf("failure string does not name the backend: %s", f.String())
	}
}

// TestGVNDiffCatchesPreciseBug: a sabotaged precise backend (wrong
// result only when the precise pipeline runs) is caught and the
// failure names the backend.
func TestGVNDiffCatchesPreciseBug(t *testing.T) {
	// Sabotage cannot go through Options.Optimize in GVNDiff mode, so
	// simulate the harness's per-backend loop directly: testLevel with
	// a pipeline that miscompiles regardless of backend stands in for a
	// precise-only bug — what matters is the failure's GVN tag.
	cfg := smallConfig()
	var f *Failure
	for seed := uint64(1); seed <= 20 && f == nil; seed++ {
		prog := progen.Generate(*cfg, seed)
		refs := referenceRuns(context.Background(), prog, 1<<20)
		f = testLevel(context.Background(), prog, refs, seed, core.LevelDist,
			variant{core.GVNPrecise, core.PREDrechsler},
			Options{GVNDiff: true, Optimize: sabotage(core.LevelDist)})
	}
	if f == nil {
		t.Fatal("sabotaged pipeline not caught on any of 20 seeds")
	}
	if f.GVN != core.GVNPrecise {
		t.Errorf("failure GVN tag = %q, want precise", f.GVN)
	}
	if !strings.Contains(f.String(), "gvn=precise") {
		t.Errorf("failure string does not name the backend: %s", f.String())
	}
}

// sabotage wraps the real pipeline but, at the target level, flips
// every integer add in main to a subtract — a classic miscompile.
func sabotage(target core.Level) OptimizeFunc {
	return func(ctx context.Context, p *ir.Program, level core.Level) (*ir.Program, error) {
		out, err := core.OptimizeWith(p, level, core.OptimizeOptions{Ctx: ctx})
		if err != nil || level != target {
			return out, err
		}
		if f := out.Func("main"); f != nil {
			for _, b := range f.Blocks {
				for _, inID := range b.Instrs {
					in := b.Fn.Instr(inID)
					if in.Op == ir.OpAdd {
						in.Op = ir.OpSub
					}
				}
			}
		}
		return out, nil
	}
}

// TestInjectedBugCaughtAndShrunk is the oracle's acceptance test: a
// deliberately broken pass must be detected as a miscompile at exactly
// the broken level, and the reducer must shrink the reproducer to a
// handful of instructions (the ISSUE's bound is 25).
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(Options{
		Seed:        1,
		N:           3,
		Config:      smallConfig(),
		Optimize:    sabotage(core.LevelPartial),
		Shrink:      true,
		ArtifactDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("injected bug was not detected")
	}
	for _, f := range rep.Failures {
		if f.Kind != KindMiscompile {
			t.Errorf("failure classified as %s, want %s: %s", f.Kind, KindMiscompile, f.Detail)
		}
		if f.Level != core.LevelPartial {
			t.Errorf("failure blamed on level %s, want %s", f.Level, core.LevelPartial)
		}
		if !f.Shrunk {
			t.Errorf("seed %d: failure was not shrunk (%d instrs)", f.Seed, f.OrigInstrs)
		}
		if f.MinInstrs > 25 {
			t.Errorf("seed %d: minimized reproducer has %d instructions, want <= 25:\n%s",
				f.Seed, f.MinInstrs, f.Program)
		}
		if f.MinInstrs >= f.OrigInstrs {
			t.Errorf("seed %d: shrink did not reduce (%d -> %d)", f.Seed, f.OrigInstrs, f.MinInstrs)
		}
		// The artifact must exist, carry its metadata header, and
		// reparse to a verifiable program.
		if f.Artifact == "" {
			t.Fatalf("seed %d: no artifact written", f.Seed)
		}
		data, err := os.ReadFile(f.Artifact)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, want := range []string{
			"# kind: miscompile",
			fmt.Sprintf("# seed: %d", f.Seed),
			"# level: partial",
			"# shrunk: true",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("artifact missing %q", want)
			}
		}
		back, err := ir.ParseProgramString(text)
		if err != nil {
			t.Fatalf("artifact does not reparse: %v", err)
		}
		if err := ir.VerifyProgram(back); err != nil {
			t.Fatalf("reparsed artifact does not verify: %v", err)
		}
	}
	// Clean levels must not be blamed.
	for _, f := range rep.Failures {
		if f.Level == core.LevelBaseline || f.Level == core.LevelReassoc || f.Level == core.LevelDist {
			t.Errorf("clean level %s reported a failure", f.Level)
		}
	}
	names, _ := filepath.Glob(filepath.Join(dir, "miscompile-seed*-partial.iloc"))
	if len(names) != len(rep.Failures) {
		t.Errorf("found %d artifacts for %d failures", len(names), len(rep.Failures))
	}
}

// TestWorkerDeterminism: the report — failures, order, details,
// reproducer bytes — must be identical for any worker count.
func TestWorkerDeterminism(t *testing.T) {
	run := func(workers int) *Report {
		rep, err := Run(Options{
			Seed:     10,
			N:        8,
			Config:   smallConfig(),
			Optimize: sabotage(core.LevelBaseline),
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(4)
	if len(serial.Failures) == 0 {
		t.Fatal("expected failures from the sabotaged pipeline")
	}
	if len(serial.Failures) != len(parallel.Failures) {
		t.Fatalf("worker count changed failure count: %d vs %d",
			len(serial.Failures), len(parallel.Failures))
	}
	for i := range serial.Failures {
		a, b := serial.Failures[i], parallel.Failures[i]
		if a.Seed != b.Seed || a.Level != b.Level || a.Kind != b.Kind || a.Detail != b.Detail {
			t.Errorf("failure %d differs across worker counts:\n  serial:   %s\n  parallel: %s",
				i, a.String(), b.String())
		}
		if a.Program.String() != b.Program.String() {
			t.Errorf("failure %d: reproducer bytes differ across worker counts", i)
		}
	}
}

// TestClassifyPanic: an optimizer panic is caught, classified, and
// does not take down the run.
func TestClassifyPanic(t *testing.T) {
	boom := func(ctx context.Context, p *ir.Program, level core.Level) (*ir.Program, error) {
		if level == core.LevelDist {
			panic("injected panic")
		}
		return core.OptimizeWith(p, level, core.OptimizeOptions{Ctx: ctx})
	}
	rep, err := Run(Options{Seed: 3, N: 2, Config: smallConfig(), Optimize: boom})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ByKind[KindPanic]; got != 2 {
		t.Fatalf("got %d panic failures, want 2 (one per program at dist)", got)
	}
	for _, f := range rep.Failures {
		if f.Kind == KindPanic && !strings.Contains(f.Detail, "injected panic") {
			t.Errorf("panic detail lost: %q", f.Detail)
		}
	}
}

// TestClassifyVerifierReject: structurally invalid output is caught by
// the whole-program verify and classified distinctly from miscompiles.
func TestClassifyVerifierReject(t *testing.T) {
	mangle := func(ctx context.Context, p *ir.Program, level core.Level) (*ir.Program, error) {
		out, err := core.OptimizeWith(p, level, core.OptimizeOptions{Ctx: ctx})
		if err != nil || level != core.LevelBaseline {
			return out, err
		}
		// Chop the terminator off main's last block.
		f := out.Func("main")
		b := f.Blocks[len(f.Blocks)-1]
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		return out, nil
	}
	rep, err := Run(Options{Seed: 4, N: 1, Config: smallConfig(), Optimize: mangle})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ByKind[KindVerifierReject]; got != 1 {
		t.Fatalf("got %d verifier rejections, want 1 (kinds: %v)", got, rep.ByKind)
	}
}

// TestClassifyTimeout: an expired context yields timeout
// classifications, never spurious miscompiles.
func TestClassifyTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	slow := func(c context.Context, p *ir.Program, level core.Level) (*ir.Program, error) {
		cancel() // expire mid-run, after generation
		return core.OptimizeWith(p, level, core.OptimizeOptions{Ctx: c})
	}
	rep, err := Run(Options{Ctx: ctx, Seed: 5, N: 1, Config: smallConfig(), Optimize: slow})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		if f.Kind != KindTimeout {
			t.Errorf("cancelled run produced %s (%s), want only timeouts", f.Kind, f.Detail)
		}
	}
}

// TestCancelledBeforeStart: a context that is already dead produces an
// error, not an empty "all clear" report.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(Options{Ctx: ctx, N: 5}); err == nil {
		t.Fatal("expected an error from a pre-cancelled run")
	}
}

// TestPerPassBlame: with PerPass on, a miscompile's detail names the
// pass the per-pass validation isolated (here the whole level is
// sabotaged post-pipeline, so blame cannot isolate a real pass — the
// detail must say so rather than guess).
func TestPerPassBlame(t *testing.T) {
	rep, err := Run(Options{
		Seed:     1,
		N:        4,
		Config:   smallConfig(),
		Optimize: sabotage(core.LevelPartial),
		Levels:   []core.Level{core.LevelPartial},
		PerPass:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("got no failures from the sabotaged pipeline")
	}
	d := rep.Failures[0].Detail
	if !strings.Contains(d, "blamed pass") && !strings.Contains(d, "per-pass validation") {
		t.Errorf("per-pass blame left no trace in detail: %q", d)
	}
}

// TestMetrics: counters reflect the run.
func TestMetrics(t *testing.T) {
	m := NewMetrics()
	rep, err := Run(Options{
		Seed: 2, N: 4, Config: smallConfig(),
		Optimize: sabotage(core.LevelBaseline),
		Levels:   []core.Level{core.LevelBaseline},
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get("programs"); got != 4 {
		t.Errorf("programs counter = %d, want 4", got)
	}
	if got := m.Get("failures"); got != int64(len(rep.Failures)) {
		t.Errorf("failures counter = %d, want %d", got, len(rep.Failures))
	}
	var b strings.Builder
	m.WriteTo(&b)
	if !strings.Contains(b.String(), "programs_per_second") {
		t.Errorf("metrics JSON missing rate gauge: %s", b.String())
	}
}

// TestShrinkPreservesKind: the reducer never accepts a candidate whose
// failure class drifts — reducing a miscompile cannot return a program
// that merely panics.
func TestShrinkPreservesKind(t *testing.T) {
	prog := progen.Generate(*smallConfig(), 1)
	reduced, ok := Shrink(context.Background(), prog, ShrinkOptions{
		Level:    core.LevelPartial,
		Kind:     KindMiscompile,
		Optimize: sabotage(core.LevelPartial),
		MaxSteps: 1 << 20,
	})
	if !ok {
		t.Fatal("shrink made no progress on a sabotaged program")
	}
	if err := ir.VerifyProgram(reduced); err != nil {
		t.Fatalf("reduced program does not verify: %v", err)
	}
	refs := referenceRuns(context.Background(), reduced, 1<<20)
	f := testLevel(context.Background(), reduced, refs, 1, core.LevelPartial,
		variant{core.GVNAWZ, core.PREDrechsler},
		Options{Optimize: sabotage(core.LevelPartial)})
	if f == nil || f.Kind != KindMiscompile {
		t.Fatalf("reduced program no longer reproduces the miscompile: %+v", f)
	}
}

// TestShrinkBudget: reduction respects its attempt budget and context.
func TestShrinkBudget(t *testing.T) {
	prog := progen.Generate(*smallConfig(), 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Shrink(context.Background(), prog, ShrinkOptions{
			Level:       core.LevelPartial,
			Kind:        KindMiscompile,
			Optimize:    sabotage(core.LevelPartial),
			MaxSteps:    1 << 20,
			MaxAttempts: 10,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shrink with a 10-attempt budget did not return promptly")
	}
}
