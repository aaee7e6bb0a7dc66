package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pre"
	"repro/internal/progen"
)

// workCounts is what one pipeline run's size-sensitive loops did.
type workCounts struct {
	pre      pre.Stats
	preIn    int // instructions PRE started from
	coalesce coalesce.Stats
	coIn     int // instructions coalesce started from
	solves   []solveWork
}

// solveWork is one liveness solve's cost and its universe.
type solveWork struct {
	pass              string
	blocks, nonLocals int
	regs, words       int
}

// nonLocals counts the registers that can be live across a block
// boundary, straight from the definition: used in some block before
// any definition there, or a φ operand.
func nonLocals(f *ir.Func) int {
	nonLocal := make([]bool, f.NumRegs())
	definedIn := make([]int, f.NumRegs())
	for _, b := range f.Blocks {
		for _, id := range b.Instrs {
			in := f.Instr(id)
			for _, a := range in.Args {
				if in.Op == ir.OpPhi || definedIn[a] != b.ID+1 {
					nonLocal[a] = true
				}
			}
			if in.Dst != ir.NoReg {
				definedIn[in.Dst] = b.ID + 1
			}
		}
	}
	n := 0
	for _, nl := range nonLocal {
		if nl {
			n++
		}
	}
	return n
}

// pipelineWork runs a level's pass sequence over f, calling PRE and
// coalesce directly so their Stats are visible, and records the
// liveness solve each dce and coalesce pass starts from.
func pipelineWork(t *testing.T, f *ir.Func, level core.Level) workCounts {
	t.Helper()
	var w workCounts
	pc := &core.PassContext{Ctx: context.Background(), Func: f, Analyses: analysis.NewCache(f)}
	for _, name := range core.PassNames(level) {
		if name == "dce" || name == "coalesce" {
			lv := pc.Analyses.Liveness() // cached: the pass reuses it
			w.solves = append(w.solves, solveWork{name, len(f.Blocks), nonLocals(f), f.NumRegs(), lv.WordsTouched()})
		}
		switch name {
		case "pre":
			w.preIn = f.InstrCount()
			w.pre = pre.RunToFixpointWith(f, pc.Analyses)
		case "coalesce":
			w.coIn = f.InstrCount()
			w.coalesce = coalesce.RunWith(f, pc.Analyses)
		default:
			p, err := core.PassByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p.Run(pc)
		}
		if err := ir.Verify(f); err != nil {
			t.Fatalf("after %s: %v", name, err)
		}
	}
	return w
}

// TestWorkLinear gates the work counters of the three loops whose cost
// used to grow with the product of two program sizes, each against a
// bound that the algorithm it replaced exceeds at 1600 blocks:
//
//   - PRE's in-block kill visits only the expressions an instruction
//     kills, through the universe's kill index: at most 4 visits per
//     instruction per round.  The full scan it replaced visited every
//     expression after every instruction, hundreds to thousands.
//   - Coalescing folds the smaller class adjacency into the larger, so
//     an entry is walked only while its list is the smaller one: at
//     most 4 visits per interference edge built.  Folding the copy's
//     destination class in regardless walked 7–10 per edge.
//   - Liveness solves over the non-local registers only: at most one
//     word per (block, non-local) pair, i.e. 64 visits per word of a
//     block's set.  Sets over the whole register namespace, ten times
//     wider or more, exceed it.
//
// Seeds 1 and 5 are coalesce-heavy after reassociation, 2 and 8
// PRE-heavy.  A regression to a quadratic loop fails here
// deterministically, not only when timing is unlucky.
func TestWorkLinear(t *testing.T) {
	sizes := []int{200, 1600}
	if raceEnabled {
		// The counters are deterministic; the race detector only
		// multiplies the cost of the large programs.
		sizes = sizes[:1]
	}
	for _, nb := range sizes {
		for _, seed := range []uint64{1, 2, 5, 8} {
			cfg := progen.Default()
			cfg.Blocks = nb
			cfg.BlockInstrs = 10
			for _, f := range progen.Generate(cfg, seed).Funcs {
				name := fmt.Sprintf("%d blocks, seed %d, %s", nb, seed, f.Name)
				w := pipelineWork(t, f, core.LevelReassoc)
				t.Logf("%s: pre %d instrs, %d rounds, %d kill visits; coalesce %d edges, %d adj visits",
					name, w.preIn, w.pre.Rounds, w.pre.KillVisits, w.coalesce.Edges, w.coalesce.AdjVisits)
				if bound := 4 * w.pre.Rounds * w.preIn; w.pre.KillVisits > bound {
					t.Errorf("%s: %d PRE kill visits exceed the bound %d", name, w.pre.KillVisits, bound)
				}
				if bound := 4 * w.coalesce.Edges; w.coalesce.AdjVisits > bound {
					t.Errorf("%s: %d coalesce adjacency visits exceed the bound %d", name, w.coalesce.AdjVisits, bound)
				}
				for _, s := range w.solves {
					bound := s.blocks * 64 * ((s.nonLocals + 63) / 64)
					t.Logf("%s: liveness before %s: %d blocks, %d non-locals of %d registers, %d words (bound %d)",
						name, s.pass, s.blocks, s.nonLocals, s.regs, s.words, bound)
					if s.words > bound {
						t.Errorf("%s: liveness before %s touched %d words, over the bound %d",
							name, s.pass, s.words, bound)
					}
				}
			}
		}
	}
}
