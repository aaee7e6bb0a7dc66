package sccp

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/ir"
	"repro/internal/progen"
)

// denseRun is the dense conditional constant propagation this package
// used before it became sparse, kept as a reference oracle: a lattice
// cell for every (block, register) pair, blocks re-evaluated from a
// LIFO worklist whenever their entry state changes.
//
// It also reports whether its result depends on its visit order: a
// branch it once evaluated on a ⊤ condition (a register undefined on
// every path visited so far) took both edges then, but took only one
// on a later visit once the condition became a constant.  The edge it
// stopped taking keeps whatever the ⊤ visits sent down it, so another
// visit order — the sparse solver's among them — can end elsewhere.
func denseRun(f *ir.Func) (Stats, bool) {
	var st Stats
	ac := analysis.NewCache(f)
	st.BlocksRemoved = ac.RemoveUnreachable()
	nb := len(f.Blocks)
	nr := f.NumRegs()

	in := make([][]value, nb)
	for i := range in {
		in[i] = make([]value, nr)
	}
	out := make([]value, nr)
	edgeExec := map[[2]int]bool{}
	blockSeen := make([]bool, nb)
	topCond := make([]bool, nb)
	orderDependent := false

	work := []*ir.Block{f.Entry()}
	blockSeen[f.Entry().ID] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		copy(out, in[b.ID])
		var condVal value
		for _, instrID := range b.Instrs {
			condVal = denseEval(f.Instr(instrID), out)
		}
		t := b.Terminator()
		if t != nil && t.Op == ir.OpCBr && condVal.kind == top {
			topCond[b.ID] = true
		}
		push := func(s *ir.Block) {
			key := [2]int{b.ID, s.ID}
			changed := !edgeExec[key]
			edgeExec[key] = true
			for r := range out {
				if m := meet(in[s.ID][r], out[r]); !same(m, in[s.ID][r]) {
					in[s.ID][r] = m
					changed = true
				}
			}
			if changed || !blockSeen[s.ID] {
				blockSeen[s.ID] = true
				work = append(work, s)
			}
		}
		if t != nil && t.Op == ir.OpCBr && condVal.kind == consti {
			if condVal.i != 0 {
				push(b.Succs[0])
			} else {
				push(b.Succs[1])
			}
		} else {
			for _, s := range b.Succs {
				push(s)
			}
		}
	}

	for _, b := range f.Blocks {
		if !blockSeen[b.ID] {
			continue
		}
		copy(out, in[b.ID])
		for i, instrID := range b.Instrs {
			instr := f.Instr(instrID)
			denseEval(instr, out)
			if instr.Dst == ir.NoReg || instr.IsConst() || !instr.Op.Pure() ||
				instr.Op == ir.OpPhi || instr.Op == ir.OpCopy {
				continue
			}
			v := out[instr.Dst]
			if !v.isConst() {
				continue
			}
			if v.kind == consti {
				b.Instrs[i] = f.NewLoadI(instr.Dst, v.i).ID()
			} else {
				b.Instrs[i] = f.NewLoadF(instr.Dst, v.f).ID()
			}
			st.Folded++
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpCBr {
			v := out[t.Args[0]]
			if v.kind == consti {
				orderDependent = orderDependent || topCond[b.ID]
				keep := b.Succs[0]
				drop := b.Succs[1]
				if v.i == 0 {
					keep, drop = drop, keep
				}
				ir.RemoveEdge(b, drop)
				b.Instrs[len(b.Instrs)-1] = f.NewInstr(ir.OpJump, ir.NoReg).ID()
				if len(b.Succs) != 1 || b.Succs[0] != keep {
					for len(b.Succs) > 0 {
						ir.RemoveEdge(b, b.Succs[0])
					}
					ir.AddEdge(b, keep)
				}
				st.BranchesFixed++
			}
		}
	}
	if st.Folded > 0 {
		f.MarkCodeMutated()
	}
	st.BlocksRemoved += ac.RemoveUnreachable()
	return st, orderDependent
}

// denseEval applies one instruction to a register state and returns
// the value a trailing cbr tests.
func denseEval(in *ir.Instr, s []value) value {
	switch in.Op {
	case ir.OpEnter:
		for _, a := range in.Args {
			s[a] = value{kind: bottom}
		}
		return value{kind: bottom}
	case ir.OpCBr:
		return s[in.Args[0]]
	case ir.OpJump, ir.OpRet, ir.OpStoreW, ir.OpStoreD, ir.OpStoreS:
		return value{kind: bottom}
	}
	args := make([]value, len(in.Args))
	for i, a := range in.Args {
		args[i] = s[a]
	}
	v := transfer(in, args)
	if in.Dst != ir.NoReg {
		s[in.Dst] = v
	}
	return v
}

// checkProgram runs the sparse and the dense solver on copies of every
// function of p and requires the same printed function and the same
// Stats (Evals, a work counter, aside).  Where the dense result depends
// on its visit order, the sparse output is instead validated by
// interpretation against the input.  It reports how many functions
// took that path.
func checkProgram(t *testing.T, name string, p *ir.Program) (orderDependent int) {
	t.Helper()
	after := p.Clone()
	for i, f := range p.Funcs {
		sparse, dense := after.Funcs[i], f.Clone()
		got := Run(sparse)
		got.Evals = 0
		want, dep := denseRun(dense)
		if dep {
			orderDependent++
			if err := ir.Verify(sparse); err != nil {
				t.Fatalf("%s %s: %v", name, f.Name, err)
			}
			continue
		}
		if g, w := sparse.String(), dense.String(); g != w {
			t.Fatalf("%s %s: sparse output differs from the dense oracle\ninput:\n%s\nsparse:\n%s\ndense:\n%s", name, f.Name, f, g, w)
		}
		if got != want {
			t.Fatalf("%s %s: stats %+v, dense oracle %+v\n%s", name, f.Name, got, want, f)
		}
	}
	if orderDependent > 0 {
		if diags := check.ValidatePass(p, after, "sccp", check.ValidateOptions{}); len(diags) > 0 {
			t.Fatalf("%s: %v", name, diags)
		}
	}
	return orderDependent
}

func TestOracleProgenShapes(t *testing.T) {
	n := uint64(2000)
	if testing.Short() {
		n = 300
	}
	var irreducible, unreachable int
	for seed := uint64(1); seed <= n; seed++ {
		cfg := progen.ForSeed(seed)
		if cfg.Irreducible {
			irreducible++
		}
		if cfg.Unreachable {
			unreachable++
		}
		if dep := checkProgram(t, fmt.Sprintf("seed %d", seed), progen.Generate(cfg, seed)); dep > 0 {
			t.Errorf("seed %d: dense result depends on visit order; add it to TestOracleOrderDependent", seed)
		}
	}
	if irreducible == 0 || unreachable == 0 {
		t.Fatalf("sweep covered %d irreducible and %d unreachable shapes, want both", irreducible, unreachable)
	}
}

// TestOracleOrderDependent pins the generated programs, among the
// first 30,000 progen.ForSeed seeds, where the dense solver's result
// depends on its visit order.  In each, a register defined on only
// some paths decides a branch.  There the sparse solver folds less
// than the dense one did, and its output must still be correct.
func TestOracleOrderDependent(t *testing.T) {
	for _, seed := range []uint64{3313, 15903, 22348} {
		if dep := checkProgram(t, fmt.Sprintf("seed %d", seed), progen.Generate(progen.ForSeed(seed), seed)); dep == 0 {
			t.Errorf("seed %d: dense result no longer depends on visit order; compare it exactly", seed)
		}
	}
}

func TestOracleDefault100Blocks(t *testing.T) {
	cfg := progen.Default()
	cfg.Blocks = 100
	for seed := uint64(1); seed <= 4; seed++ {
		if dep := checkProgram(t, fmt.Sprintf("seed %d", seed), progen.Generate(cfg, seed)); dep > 0 {
			t.Errorf("seed %d: dense result depends on visit order", seed)
		}
	}
}

func TestOracleHandWritten(t *testing.T) {
	cases := map[string]string{
		// A φ already in the (non-SSA) input meets its operands as
		// they stand at the φ; the second φ reads the first one's
		// result.
		"real phi": `
func f(r1) {
b0:
    enter(r1)
    loadI 2 => r2
    cbr r1 -> b1, b2
b1:
    loadI 3 => r3
    jump -> b3
b2:
    loadI 3 => r4
    jump -> b3
b3:
    phi r3, r4 => r5
    phi r5, r2 => r6
    add r5, r2 => r7
    add r6, r7 => r8
    ret r8
}`,
		"real phi in a loop": `
func f(r1) {
b0:
    enter(r1)
    loadI 0 => r2
    loadI 1 => r5
    jump -> b1
b1:
    phi r2, r3 => r4
    add r4, r5 => r3
    cmpLT r3, r1 => r6
    cbr r6 -> b1, b2
b2:
    ret r4
}`,
		// r9 is never defined: the condition stays ⊤ and both arms
		// stay.
		"top condition": `
func f(r1) {
b0:
    enter(r1)
    cbr r9 -> b1, b2
b1:
    loadI 1 => r2
    jump -> b3
b2:
    loadI 2 => r2
    jump -> b3
b3:
    add r2, r1 => r3
    ret r3
}`,
		"self loop": `
func f(r1) {
b0:
    enter(r1)
    loadI 5 => r2
    loadI 1 => r4
    jump -> b1
b1:
    mul r2, r4 => r2
    add r2, r4 => r6
    sub r1, r4 => r1
    cbr r1 -> b1, b2
b2:
    add r6, r2 => r7
    ret r7
}`,
		// The entry block is a loop header: r3 enters undefined and
		// comes around the back edge.
		"entry with predecessors": `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    add r2, r3 => r3
    loadI 4 => r5
    cmpLT r3, r1 => r4
    cbr r4 -> b1, b2
b1:
    loadI 4 => r5
    jump -> b0
b2:
    add r5, r2 => r6
    ret r6
}`,
		"cbr to one block, constant condition": `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    cbr r2 -> b1, b1
b1:
    loadI 4 => r3
    add r3, r2 => r4
    ret r4
}`,
		"cbr to one block, unknown condition": `
func f(r1) {
b0:
    enter(r1)
    loadI 1 => r2
    cbr r1 -> b1, b1
b1:
    add r2, r2 => r4
    ret r4
}`,
		// A float condition is never decided: both arms stay.
		"float condition": `
func f(r1) {
b0:
    enter(r1)
    loadF 1.5 => r2
    cbr r2 -> b1, b2
b1:
    loadI 1 => r3
    jump -> b3
b2:
    loadI 1 => r3
    jump -> b3
b3:
    add r3, r1 => r4
    ret r4
}`,
		// A NaN constant equals itself: it folds and the fixpoint
		// terminates.
		"NaN around a loop": `
func f(r1) {
b0:
    enter(r1)
    loadF 0.0 => r2
    fdiv r2, r2 => r3
    jump -> b1
b1:
    fadd r3, r3 => r3
    cbr r1 -> b1, b2
b2:
    fadd r3, r2 => r4
    ret r4
}`,
		"signed zeros": `
func f(r1) {
b0:
    enter(r1)
    cbr r1 -> b1, b2
b1:
    loadF 0.0 => r2
    jump -> b3
b2:
    loadF -0.0 => r2
    jump -> b3
b3:
    loadF 1.0 => r3
    fdiv r3, r2 => r4
    ret r4
}`,
	}
	for name, src := range cases {
		f := ir.MustParseFunc(src)
		if dep := checkProgram(t, name, &ir.Program{Funcs: []*ir.Func{f}}); dep > 0 {
			t.Errorf("%s: dense result depends on visit order", name)
		}
	}
}

// TestEvalsLinear gates the solver's work on the Wegman–Zadeck bound:
// every instruction is evaluated once when its block is reached, and
// again each time an operand gets lower, which happens at most twice
// per value (⊤ → constant → ⊥); every φ operand is met at most twice.
// A quadratic regression fails here deterministically, not only when
// timing is unlucky.
func TestEvalsLinear(t *testing.T) {
	for _, nb := range []int{100, 1600} {
		for _, seed := range []uint64{1, 8} {
			cfg := progen.Default()
			cfg.Blocks = nb
			cfg.BlockInstrs = 10
			for _, f := range progen.Generate(cfg, seed).Funcs {
				st := Run(f.Clone())

				g := f.Clone()
				ac := analysis.NewCache(g)
				ac.RemoveUnreachable()
				sg := build(g, ac.RPO())
				instrs, uses, phis, phiOps := len(sg.nodes), 0, 0, 0
				for _, n := range sg.nodes {
					uses += int(n.nargs)
				}
				for _, ph := range sg.phis {
					if !ph.dead {
						phis++
						phiOps += len(ph.block.Preds)
					}
				}
				bound := instrs + phis + 2*(uses+phiOps)
				t.Logf("%d blocks, seed %d, %s: %d instrs, %d φs, %d evals (bound %d)",
					nb, seed, f.Name, instrs, phis, st.Evals, bound)
				if st.Evals > bound {
					t.Errorf("%d blocks, seed %d, %s: %d evals exceed the linear bound %d",
						nb, seed, f.Name, st.Evals, bound)
				}
			}
		}
	}
}
