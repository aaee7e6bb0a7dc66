package lospre

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/coalesce"
	"repro/internal/dce"
	"repro/internal/interp"
	"repro/internal/ir"
)

func run(t *testing.T, f *ir.Func, fn string, args ...int64) (int64, int64) {
	t.Helper()
	vals := make([]interp.Value, len(args))
	for i, a := range args {
		vals[i] = interp.IntVal(a)
	}
	m := interp.NewMachine(&ir.Program{Funcs: []*ir.Func{f.Clone()}})
	v, err := m.Call(fn, vals...)
	if err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	return v.I, m.Steps
}

func cleanup(f *ir.Func) {
	dce.Run(f)
	coalesce.Run(f)
	cfg.RemoveEmptyBlocks(f)
	dce.Run(f)
}

// opOutside counts occurrences of op outside the named blocks.
func opOutside(f *ir.Func, op ir.Op, inside ...string) int {
	allowed := map[string]bool{}
	for _, name := range inside {
		allowed[name] = true
	}
	n := 0
	for _, b := range f.Blocks {
		if allowed[b.Name] {
			continue
		}
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

// TestLospreLoopInvariant: the classic full-redundancy-in-a-loop case.
// The loop body's frequency estimate dwarfs the preheader edge, so the
// cut moves the computation out.
func TestLospreLoopInvariant(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    add r1, r2 => r6
    add r4, r6 => r4
    loadI 1 => r7
    add r5, r7 => r5
    cmpLT r5, r3 => r8
    cbr r8 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, before := run(t, f, "f", 3, 4, 10)
	st := RunToFixpoint(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if st.Transformed == 0 || st.Inserted == 0 {
		t.Errorf("invariant not moved: %+v\n%s", st, f)
	}
	cleanup(f)
	got, after := run(t, f, "f", 3, 4, 10)
	if got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	if before-after < 9 {
		t.Errorf("expected ≥9 ops saved, got %d (%d -> %d)\n%s", before-after, before, after, f)
	}
}

// TestLospreSpeculativeHoist is what separates lospre from the
// down-safe backends: a computation guarded by a condition inside a
// loop is hoisted out anyway, because one speculative evaluation
// outside beats the expected many inside — exactly the motion
// internal/pre must refuse.
func TestLospreSpeculativeHoist(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    cmpLT r5, r1 => r6
    cbr r6 -> b2, b3
b2:
    mul r2, r2 => r7
    add r4, r7 => r4
    jump -> b3
b3:
    loadI 1 => r8
    add r5, r8 => r5
    cmpLT r5, r3 => r9
    cbr r9 -> b1, b4
b4:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	wantHot, hotBefore := run(t, f, "f", 10, 5, 10)
	wantCold, _ := run(t, f, "f", 0, 5, 10)
	st := RunToFixpoint(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	cleanup(f)
	gotHot, hotAfter := run(t, f, "f", 10, 5, 10)
	gotCold, _ := run(t, f, "f", 0, 5, 10)
	if gotHot != wantHot || gotCold != wantCold {
		t.Fatalf("semantics changed: (%d,%d) vs (%d,%d)", gotHot, gotCold, wantHot, wantCold)
	}
	if st.Transformed == 0 {
		t.Fatalf("no speculation attempted: %+v\n%s", st, f)
	}
	// The mul must have left the loop: fewer dynamic ops on the hot
	// path, and no mul remaining in the loop blocks.
	if hotAfter >= hotBefore {
		t.Errorf("hot path not shortened: %d -> %d\n%s", hotBefore, hotAfter, f)
	}
	dom := cfg.BuildDomTree(f)
	li := cfg.FindLoops(f, dom)
	for _, b := range f.Blocks {
		if li.Depth(b) > 0 {
			for _, inID := range b.Instrs {
				in := b.Fn.Instr(inID)
				if in.Op == ir.OpMul {
					t.Errorf("mul still inside the loop in %s\n%s", b.Name, f)
				}
			}
		}
	}
}

// TestLospreNonSpeculatableDiv: an integer division may trap, so it
// must never run on a path that did not originally run it.  Calling
// with a zero divisor on the skip path proves it behaviorally: the
// original program returns cleanly, and so must the optimized one
// (run fails the test on a trap).
func TestLospreNonSpeculatableDiv(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    cmpLT r5, r1 => r6
    cbr r6 -> b2, b3
b2:
    div r2, r3 => r7
    add r4, r7 => r4
    jump -> b3
b3:
    loadI 1 => r8
    add r5, r8 => r5
    loadI 10 => r9
    cmpLT r5, r9 => r10
    cbr r10 -> b1, b4
b4:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	want, _ := run(t, f, "f", 0, 5, 0) // skip path, divisor zero: no trap
	RunToFixpoint(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	cleanup(f)
	got, _ := run(t, f, "f", 0, 5, 0)
	if got != want {
		t.Fatalf("semantics changed: %d vs %d", got, want)
	}
	if n := opOutside(f, ir.OpDiv, "b2"); n != 0 {
		t.Errorf("div speculated out of its guarded block\n%s", f)
	}
}

// TestLospreLoadsRespectStores: a load in a loop with a store to an
// unknown address is neither transparent nor down-safe outside, so it
// stays put; without the store the load is down-safe at the preheader
// and classical (non-speculative) motion hoists it.
func TestLospreLoadsRespectStores(t *testing.T) {
	const withStore = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    jump -> b1
b1:
    ldw [r1] => r5
    stw r5 => [r2]
    loadI 1 => r6
    add r4, r6 => r4
    cmpLT r4, r3 => r7
    cbr r7 -> b1, b2
b2:
    ret r5
}
`
	f := ir.MustParseFunc(withStore)
	RunToFixpoint(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if n := opOutside(f, ir.OpLoadW, "b1"); n != 0 {
		t.Errorf("load hoisted past a store\n%s", f)
	}

	const noStore = `
func f(r1, r3) {
b0:
    enter(r1, r3)
    loadI 0 => r4
    jump -> b1
b1:
    ldw [r1] => r5
    add r4, r5 => r4
    loadI 1 => r6
    add r4, r6 => r4
    cmpLT r4, r3 => r7
    cbr r7 -> b1, b2
b2:
    ret r4
}
`
	f2 := ir.MustParseFunc(noStore)
	prog := &ir.Program{Funcs: []*ir.Func{f2}, GlobalSize: 64}
	m := interp.NewMachine(prog.Clone())
	m.WriteInt64(8, 5)
	want, _ := m.Call("f", interp.IntVal(8), interp.IntVal(40))
	st := RunToFixpoint(f2)
	if err := ir.Verify(f2); err != nil {
		t.Fatal(err)
	}
	if st.Transformed == 0 {
		t.Errorf("unconditional loop load not hoisted: %+v\n%s", st, f2)
	}
	m2 := interp.NewMachine(prog.Clone())
	m2.WriteInt64(8, 5)
	got, err := m2.Call("f", interp.IntVal(8), interp.IntVal(40))
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I {
		t.Fatalf("semantics changed: %d vs %d", got.I, want.I)
	}
}

// TestLospreBudgetFallback drives the conservative fallback through
// the test seam: when every cut solve reports budget exhaustion the
// pass must transform nothing and leave the code byte-identical.
func TestLospreBudgetFallback(t *testing.T) {
	const src = `
func f(r1, r2, r3) {
b0:
    enter(r1, r2, r3)
    loadI 0 => r4
    loadI 0 => r5
    jump -> b1
b1:
    add r1, r2 => r6
    add r4, r6 => r4
    loadI 1 => r7
    add r5, r7 => r5
    cmpLT r5, r3 => r8
    cbr r8 -> b1, b2
b2:
    ret r4
}
`
	f := ir.MustParseFunc(src)
	cfg.SplitCriticalEdges(f) // CFG normalization happens either way
	before := f.String()
	st := runWith(f, analysis.NewCache(f), 1<<30)
	if st.Fallbacks == 0 {
		t.Fatalf("test seam did not trip: %+v", st)
	}
	if st.Transformed != 0 || st.Inserted != 0 || st.Replaced != 0 || st.Rewritten != 0 {
		t.Errorf("fallback still transformed: %+v", st)
	}
	if after := f.String(); after != before {
		t.Errorf("fallback modified the function:\n--- before\n%s\n--- after\n%s", before, after)
	}
	// And with the real budget the same input does transform.
	f2 := ir.MustParseFunc(src)
	if st2 := RunWith(f2, analysis.NewCache(f2)); st2.Transformed == 0 {
		t.Errorf("real budget failed to transform the control case: %+v", st2)
	}
}

// TestLospreStrictImprovementSkips: a single straight-line computation
// has status-quo cost equal to any placement (the cut can do no better
// than the use's own edge), so the strict-improvement guard must leave
// it alone — the same guard is what makes the fixpoint terminate.
func TestLospreStrictImprovementSkips(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    add r1, r2 => r3
    ret r3
}
`
	f := ir.MustParseFunc(src)
	st := RunToFixpoint(f)
	if st.Transformed != 0 {
		t.Errorf("cost-neutral move taken: %+v\n%s", st, f)
	}
	if st.Rounds != 1 {
		t.Errorf("fixpoint did not stop immediately: %+v", st)
	}
	if !strings.Contains(f.String(), "add r1, r2") {
		t.Errorf("original computation disturbed\n%s", f)
	}
}

// TestLosprePureDiamondSpeculates documents the cost-model difference
// from the down-safe backends: with uniform frequencies the §2 diamond
// is resolved by one speculative computation above the branch (cost 1)
// instead of edge insertion plus a surviving compute (cost 2).  Both
// paths must stay semantically intact.
func TestLosprePureDiamondSpeculates(t *testing.T) {
	const src = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    jump -> b3
b2:
    loadI 7 => r4
    jump -> b3
b3:
    add r1, r2 => r5
    ret r5
}
`
	f := ir.MustParseFunc(src)
	wantThen, _ := run(t, f, "f", 1, 2)
	wantElse, _ := run(t, f, "f", 0, 2)
	st := RunToFixpoint(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if st.Transformed == 0 || st.Inserted != 1 {
		t.Errorf("expected one speculative insertion above the branch: %+v\n%s", st, f)
	}
	cleanup(f)
	gotThen, _ := run(t, f, "f", 1, 2)
	gotElse, _ := run(t, f, "f", 0, 2)
	if gotThen != wantThen || gotElse != wantElse {
		t.Fatalf("semantics changed: (%d,%d) vs (%d,%d)", gotThen, gotElse, wantThen, wantElse)
	}
}
