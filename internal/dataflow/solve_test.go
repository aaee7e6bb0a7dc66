package dataflow_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// The diamond used by the forward and backward solver tests:
//
//	b0 → {b1, b2} → b3
//
// b1 computes r1+r2, b2 kills r2, b3 computes r1+r2.
const solveDiamond = `
func f(r1, r2) {
b0:
    enter(r1, r2)
    cbr r1 -> b1, b2
b1:
    add r1, r2 => r3
    jump -> b3
b2:
    loadI 7 => r2
    jump -> b3
b3:
    add r1, r2 => r4
    ret r4
}
`

// universeFor builds the expression universe plus the block-name index
// for one parsed function.
func universeFor(t *testing.T, src string) (*ir.Func, *dataflow.Universe, map[string]*ir.Block) {
	t.Helper()
	f := ir.MustParseFunc(src)
	u := dataflow.BuildUniverse(f)
	byName := map[string]*ir.Block{}
	for _, b := range f.Blocks {
		byName[b.Name] = b
	}
	return f, u, byName
}

// perBlock allocates one separate NewBitSet per block.
func perBlock(nb, n int) []*dataflow.BitSet {
	sets := make([]*dataflow.BitSet, nb)
	for i := range sets {
		sets[i] = dataflow.NewBitSet(n)
	}
	return sets
}

func TestSolveForwardAvailability(t *testing.T) {
	f, u, byName := universeFor(t, solveDiamond)
	n := u.NumExprs()
	rpo := cfg.ReversePostorder(f)
	nb := len(f.Blocks)

	in, out := perBlock(nb, n), perBlock(nb, n)
	for _, b := range f.Blocks {
		if b != f.Entry() {
			out[b.ID].SetAll() // GFP seed for a must problem
		} else {
			out[b.ID].CopyFrom(u.Comp[b.ID])
		}
	}
	dataflow.SolveForward(rpo, in, out,
		func(b *ir.Block, bin, dst *dataflow.BitSet) {
			dst.CopyFrom(bin)
			dst.Intersect(u.Transp[b.ID])
			dst.Union(u.Comp[b.ID])
		})

	k, _ := dataflow.KeyOf(f.NewInstr(ir.OpAdd, 99, 1, 2))
	e := u.Index[k]
	// r1+r2 is available out of b1, killed by b2's write to r2, so the
	// all-paths meet at the join must drop it.
	if !out[byName["b1"].ID].Has(e) {
		t.Error("r1+r2 must be available out of b1")
	}
	if out[byName["b2"].ID].Has(e) {
		t.Error("r1+r2 must not be available out of b2 (r2 redefined)")
	}
	if in[byName["b3"].ID].Has(e) {
		t.Error("the all-paths meet at the join must intersect away r1+r2")
	}
}

func TestSolveBackwardAnticipability(t *testing.T) {
	f, u, byName := universeFor(t, solveDiamond)
	n := u.NumExprs()
	rpo := cfg.ReversePostorder(f)
	nb := len(f.Blocks)

	in, out := perBlock(nb, n), perBlock(nb, n)
	for _, b := range f.Blocks {
		in[b.ID].SetAll()
	}
	dataflow.SolveBackward(rpo, out, in,
		func(b *ir.Block, bout, dst *dataflow.BitSet) {
			dst.CopyFrom(bout)
			dst.Intersect(u.Transp[b.ID])
			dst.Union(u.AntLoc[b.ID])
		})

	k, _ := dataflow.KeyOf(f.NewInstr(ir.OpAdd, 99, 1, 2))
	e := u.Index[k]
	// Every path from b0 reaches b3's r1+r2, but b2 redefines r2 on the
	// way, so the expression is anticipated at b0's exit only via b1.
	if !in[byName["b3"].ID].Has(e) {
		t.Error("r1+r2 must be anticipated into b3")
	}
	if !in[byName["b1"].ID].Has(e) {
		t.Error("r1+r2 must be anticipated into b1 (transparent)")
	}
	if in[byName["b2"].ID].Has(e) {
		t.Error("r1+r2 must not be anticipated into b2 (kill)")
	}
	if out[byName["b3"].ID].Count() != 0 {
		t.Error("exit block's out-set must be the empty-meet boundary ∅")
	}
}

func TestSolveEmptyRPO(t *testing.T) {
	// Degenerate input must be a no-op, not a panic.
	dataflow.SolveForward(nil, nil, nil, nil)
	dataflow.SolveBackward(nil, nil, nil, nil)
}
