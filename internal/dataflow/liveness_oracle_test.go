package dataflow_test

import (
	"fmt"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/ssa"
	"repro/internal/suite"
)

// fullWidthLiveness is the liveness solver this package used before it
// ranged over non-local registers only, kept as a reference oracle:
// every block's sets have one bit per register of the function's whole
// namespace.
func fullWidthLiveness(f *ir.Func) (liveIn, liveOut []*dataflow.BitSet) {
	n := len(f.Blocks)
	nr := f.NumRegs()
	liveIn = dataflow.NewBitSetFamily(n, nr)
	liveOut = dataflow.NewBitSetFamily(n, nr)
	use := dataflow.NewBitSetFamily(n, nr) // upward-exposed non-φ uses
	def := dataflow.NewBitSetFamily(n, nr) // registers defined in block
	for _, b := range f.Blocks {
		for ii := range b.Instrs {
			in := b.Instr(ii)
			if in.Op == ir.OpPhi {
				if in.Dst != ir.NoReg {
					def[b.ID].Set(int(in.Dst))
				}
				continue
			}
			for _, a := range in.Args {
				if !def[b.ID].Has(int(a)) {
					use[b.ID].Set(int(a))
				}
			}
			if in.Dst != ir.NoReg {
				def[b.ID].Set(int(in.Dst))
			}
		}
	}
	rpo := cfg.ReversePostorder(f)
	tmp := dataflow.NewBitSet(nr)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := liveOut[b.ID]
			for _, s := range b.Succs {
				if out.Union(liveIn[s.ID]) {
					changed = true
				}
				pi := s.PredIndex(b)
				for _, pid := range s.Phis() {
					phi := f.Instr(pid)
					if pi < len(phi.Args) && !out.Has(int(phi.Args[pi])) {
						out.Set(int(phi.Args[pi]))
						changed = true
					}
				}
			}
			tmp.CopyFrom(out)
			tmp.Subtract(def[b.ID])
			tmp.Union(use[b.ID])
			if !tmp.Equal(liveIn[b.ID]) {
				liveIn[b.ID].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// checkAgainstOracle compares every (block, register) membership of the
// non-local solver with the full-width one, and the sparse-set load of
// each live-out with the oracle's set.
func checkAgainstOracle(t *testing.T, what string, f *ir.Func) {
	t.Helper()
	wantIn, wantOut := fullWidthLiveness(f)
	lv := dataflow.ComputeLiveness(f)
	nr := f.NumRegs()
	live := dataflow.NewSparseSet(nr)
	bad := 0
	for _, b := range f.Blocks {
		for r := 0; r < nr; r++ {
			if got, want := lv.LiveInHas(b, ir.Reg(r)), wantIn[b.ID].Has(r); got != want {
				bad++
				if bad <= 5 {
					t.Errorf("%s: LiveIn(%s) has r%d = %v, oracle %v", what, b.Name, r, got, want)
				}
			}
			if got, want := lv.LiveOutHas(b, ir.Reg(r)), wantOut[b.ID].Has(r); got != want {
				bad++
				if bad <= 5 {
					t.Errorf("%s: LiveOut(%s) has r%d = %v, oracle %v", what, b.Name, r, got, want)
				}
			}
		}
		lv.LoadLiveOut(b, live)
		if live.Len() != wantOut[b.ID].Count() {
			t.Errorf("%s: LoadLiveOut(%s) loaded %d registers, oracle live-out has %d",
				what, b.Name, live.Len(), wantOut[b.ID].Count())
		}
		for _, r := range live.Members() {
			if !wantOut[b.ID].Has(int(r)) {
				t.Errorf("%s: LoadLiveOut(%s) loaded r%d, not live out", what, b.Name, r)
			}
		}
	}
}

// checkForms checks a function as given, in pruned SSA form, and after
// SSA destruction.
func checkForms(t *testing.T, name string, f *ir.Func) {
	t.Helper()
	g := f.Clone()
	checkAgainstOracle(t, name+" (input)", g)
	ssa.Build(g, ssa.BuildOptions{Prune: true, FoldCopies: true})
	checkAgainstOracle(t, name+" (SSA)", g)
	ssa.Destruct(g)
	checkAgainstOracle(t, name+" (destructed)", g)
}

func TestLivenessMatchesFullWidthOnSuite(t *testing.T) {
	for _, r := range suite.All() {
		prog, err := r.Compile()
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		for _, f := range prog.Funcs {
			checkForms(t, r.Name+"/"+f.Name, f)
		}
	}
}

func TestLivenessMatchesFullWidthOnGenerated(t *testing.T) {
	for _, nb := range []int{3, 10, 50, 200} {
		for _, irreducible := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				c := progen.Default()
				c.Blocks = nb
				c.Irreducible = irreducible
				for _, f := range progen.Generate(c, seed).Funcs {
					checkForms(t, fmt.Sprintf("%d blocks, irreducible=%v, seed %d, %s", nb, irreducible, seed, f.Name), f)
				}
			}
		}
	}
	// The fuzzer's varied shapes, unreachable blocks among them.
	for seed := uint64(1); seed <= 40; seed++ {
		for _, f := range progen.Generate(progen.ForSeed(seed), seed).Funcs {
			checkForms(t, fmt.Sprintf("ForSeed(%d), %s", seed, f.Name), f)
		}
	}
}
