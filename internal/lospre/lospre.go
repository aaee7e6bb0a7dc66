// Package lospre implements speculative partial redundancy
// elimination ("lospre", after Krause's lifetime-optimal speculative
// PRE) as an alternate backend to internal/pre.
//
// Instead of the classical four-problem dataflow cascade, each
// expression is placed by solving one minimum s-t cut over a small
// graph with two nodes per block — N(b) for the block's entry, X(b)
// for its exit — plus a use node U(b) per block that computes the
// expression.  A node on the sink side of the cut means "the temporary
// h holds the expression's value here".  Cut arcs are exactly the
// placement costs:
//
//   - X(p)→N(b), capacity freq(edge): insert h ← e on the CFG edge;
//   - N(b)→X(b), capacity freq(b), present when b is transparent and
//     does not compute e: insert h ← e at the bottom of b;
//   - N(b)→U(b), capacity freq(b), present when e is upward-exposed
//     in b: leave the occurrence computing (the status quo).
//
// Forced labels encode the program facts as infinite arcs: s→N(entry)
// (nothing is available at function entry), s→X(b) when b kills the
// operands without recomputing, s→N/X at points where the operands are
// not definitely assigned, and — for expressions whose speculation
// could introduce a trap (loads, integer div/mod) — s→N/X at points
// that are not down-safe, which collapses the solution to classical
// non-speculative motion for exactly those expressions.  U(b)→t and
// X(b)→t (when b computes e) are the sink-side forcings.  Block
// frequencies are loop-depth estimates (8^depth), so the min cut
// naturally pays one insertion outside a loop to spare a computation
// inside it, including on paths that did not compute e — that is the
// speculation classical PRE's down-safety forbids.
//
// The cut is solved by a budgeted Dinic (see mincut.go): linear work
// on the structured CFGs the linear-time formulation targets, with a
// safe fallback — leave the expression untouched — when the budget
// trips on an adversarial graph.  An expression is only transformed
// when its max flow is strictly below the status-quo cost, which both
// skips useless churn and guarantees the fixpoint driver terminates.
package lospre

import (
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Stats reports what one lospre run did to a function.
type Stats struct {
	Exprs         int // size of the expression universe
	Transformed   int // expressions whose cut beat the status quo
	Inserted      int // h ← e computations inserted (edges and block bottoms)
	Replaced      int // occurrences rewritten into copies from the temp
	Rewritten     int // occurrences rewritten to h ← e; t ← copy h
	Fallbacks     int // expressions skipped because the cut budget tripped
	EdgesSplit    int // critical edges split
	RemovedBlocks int // unreachable blocks dropped before analysis
	Rounds        int // iterations used by RunToFixpoint
}

// Changed reports whether the run made optimization progress — the
// fixpoint driver's termination condition.  Every transformed
// expression yields at least one Replaced occurrence (a cut strictly
// cheaper than the status quo leaves some use reading the temp), so
// Replaced alone is the progress signal.
func (s Stats) Changed() bool { return s.Replaced > 0 }

// Mutated reports whether the run modified the function at all.
func (s Stats) Mutated() bool {
	return s.Inserted+s.Replaced+s.Rewritten+s.EdgesSplit+s.RemovedBlocks > 0
}

// MaxRounds bounds RunToFixpoint.  The strict-improvement guard makes
// each round lower the modeled execution cost, so this is a backstop,
// not the usual termination path.
const MaxRounds = 8

// maxDepth caps the loop-depth frequency exponent so freq stays far
// below the forced-label capacity.
const maxDepth = 12

// speculatable reports whether computing op on a path that did not
// originally compute it can trap: loads (bounds) and integer division
// and modulus (zero divisor) cannot be speculated; every other pure
// operation is total in internal/interp.
func speculatable(op ir.Op) bool {
	return !op.IsLoad() && op != ir.OpDiv && op != ir.OpMod
}

// RunToFixpoint applies Run repeatedly until lospre finds nothing more.
func RunToFixpoint(f *ir.Func) Stats {
	return RunToFixpointWith(f, analysis.NewCache(f))
}

// RunToFixpointWith is RunToFixpoint drawing CFG analyses from the
// given cache.
func RunToFixpointWith(f *ir.Func, ac *analysis.Cache) Stats {
	var total Stats
	for i := 0; i < MaxRounds; i++ {
		st := RunWith(f, ac)
		total.Transformed += st.Transformed
		total.Inserted += st.Inserted
		total.Replaced += st.Replaced
		total.Rewritten += st.Rewritten
		total.Fallbacks += st.Fallbacks
		total.EdgesSplit += st.EdgesSplit
		total.RemovedBlocks += st.RemovedBlocks
		total.Exprs = st.Exprs
		total.Rounds++
		if !st.Changed() {
			break
		}
	}
	return total
}

// Run performs one round of speculative PRE on f and returns
// statistics.  The function is modified in place.
func Run(f *ir.Func) Stats {
	return RunWith(f, analysis.NewCache(f))
}

// Node numbering within the placement graph.
const (
	srcNode  = 0
	sinkNode = 1
)

func nNode(b *ir.Block) int { return 2 + 3*b.ID }
func xNode(b *ir.Block) int { return 3 + 3*b.ID }
func uNode(b *ir.Block) int { return 4 + 3*b.ID }

// RunWith is Run drawing CFG analyses from the given cache.
func RunWith(f *ir.Func, ac *analysis.Cache) Stats {
	return runWith(f, ac, 0)
}

// runWith is RunWith with a test seam: forcedBudgetTrips > 0 makes the
// first that many cut solves report budget exhaustion, exercising the
// conservative fallback without an adversarial graph.
func runWith(f *ir.Func, ac *analysis.Cache, forcedBudgetTrips int) Stats {
	var st Stats
	st.RemovedBlocks = ac.RemoveUnreachable()
	st.EdgesSplit = cfg.SplitCriticalEdges(f)
	u := dataflow.BuildUniverse(f)
	n := u.NumExprs()
	st.Exprs = n
	if n == 0 {
		return st
	}
	rpo := ac.RPO()
	nb := len(f.Blocks)
	nr := f.NumRegs()

	// Down-safety (anticipability), needed to pin the non-speculatable
	// expressions to classical placement.
	antin := dataflow.NewBitSetFamily(nb, n)
	antout := dataflow.NewBitSetFamily(nb, n)
	for _, b := range f.Blocks {
		antin[b.ID].SetAll()
	}
	dataflow.SolveBackward(rpo, antout, antin,
		func(b *ir.Block, out, dst *dataflow.BitSet) {
			dst.CopyFrom(out)
			dst.Intersect(u.Transp[b.ID])
			dst.Union(u.AntLoc[b.ID])
		})

	// Definite assignment of registers (forward, all-paths): an
	// insertion may only be placed where the expression's operands are
	// certainly defined, or checked mode would reject the output.
	defs := dataflow.NewBitSetFamily(nb, nr)
	for _, b := range f.Blocks {
		set := defs[b.ID]
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if in.Op == ir.OpEnter {
				for _, p := range in.Args {
					set.Set(int(p))
				}
			}
			if in.Dst != ir.NoReg {
				set.Set(int(in.Dst))
			}
		}
	}
	defin := dataflow.NewBitSetFamily(nb, nr)
	defout := dataflow.NewBitSetFamily(nb, nr)
	for _, b := range f.Blocks {
		defout[b.ID].SetAll()
	}
	dataflow.SolveForward(rpo, defin, defout,
		func(b *ir.Block, in, dst *dataflow.BitSet) {
			dst.CopyFrom(in)
			dst.Union(defs[b.ID])
		})
	definedAt := func(sets []*dataflow.BitSet, b *ir.Block, e int) bool {
		k := u.Keys[e]
		if k.A != ir.NoReg && !sets[b.ID].Has(int(k.A)) {
			return false
		}
		if k.B != ir.NoReg && !sets[b.ID].Has(int(k.B)) {
			return false
		}
		return true
	}

	// Execution frequency estimates from loop depth.
	loops := ac.Loops()
	freq := make([]int64, nb)
	for _, b := range f.Blocks {
		d := loops.Depth(b)
		if d > maxDepth {
			d = maxDepth
		}
		freq[b.ID] = int64(1) << uint(3*d)
	}

	// Per-expression placement decisions, accumulated and applied in
	// one rewrite pass at the end.
	transformed := dataflow.NewBitSet(n)
	navail := dataflow.NewBitSetFamily(nb, n) // N(b) on the sink side: h valid at entry
	topIns := make([][]int, nb)               // insertions at block top (edge, single-pred side)
	botIns := make([][]int, nb)               // insertions before the terminator
	g := newMincut(2 + 3*nb)
	mark := make([]bool, 2+3*nb)

	for e := 0; e < n; e++ {
		spec := speculatable(u.Keys[e].Op)
		trivial := int64(0)
		for _, b := range f.Blocks {
			if u.AntLoc[b.ID].Has(e) {
				trivial += freq[b.ID]
			}
		}
		if trivial == 0 {
			// Computed only after kills in its blocks: no upward-exposed
			// use to redirect, nothing to gain.
			continue
		}

		g.reset()
		entry := f.Entry()
		g.addEdge(srcNode, nNode(entry), inf)
		for _, b := range f.Blocks {
			comp := u.Comp[b.ID].Has(e)
			transp := u.Transp[b.ID].Has(e)
			if !definedAt(defin, b, e) || (!spec && !antin[b.ID].Has(e)) {
				if b != entry {
					g.addEdge(srcNode, nNode(b), inf)
				}
			}
			switch {
			case comp:
				g.addEdge(xNode(b), sinkNode, inf)
			case !transp || !definedAt(defout, b, e) || (!spec && !antout[b.ID].Has(e)):
				g.addEdge(srcNode, xNode(b), inf)
			default:
				g.addEdge(nNode(b), xNode(b), freq[b.ID])
			}
			if u.AntLoc[b.ID].Has(e) {
				g.addEdge(nNode(b), uNode(b), freq[b.ID])
				g.addEdge(uNode(b), sinkNode, inf)
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				g.addEdge(xNode(b), nNode(s), min(freq[b.ID], freq[s.ID]))
			}
		}

		flow, ok := g.maxflow(srcNode, sinkNode)
		if forcedBudgetTrips > 0 {
			forcedBudgetTrips--
			ok = false
		}
		if !ok {
			st.Fallbacks++
			continue
		}
		if flow >= trivial {
			continue // no strict improvement: keep the status quo
		}

		g.minCutReachable(srcNode, mark)
		transformed.Set(e)
		st.Transformed++
		for _, b := range f.Blocks {
			if !mark[nNode(b)] {
				navail[b.ID].Set(e)
			}
			if mark[nNode(b)] && !mark[xNode(b)] && !u.Comp[b.ID].Has(e) {
				botIns[b.ID] = append(botIns[b.ID], e)
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if !mark[xNode(b)] || mark[nNode(s)] {
					continue
				}
				// Insertion on the edge b→s; critical edges are split,
				// so one endpoint owns the edge exclusively.
				if len(b.Succs) == 1 {
					botIns[b.ID] = append(botIns[b.ID], e)
				} else {
					topIns[s.ID] = append(topIns[s.ID], e)
				}
			}
		}
	}
	if transformed.Empty() {
		return st
	}

	temp := make([]ir.Reg, n)
	transformed.ForEach(func(e int) { temp[e] = f.NewReg() })

	insertedInstr := map[*ir.Instr]bool{}
	for _, b := range f.Blocks {
		for _, e := range topIns[b.ID] {
			pos := 0
			for pos < len(b.Instrs) && (b.Instr(pos).Op == ir.OpPhi || b.Instr(pos).Op == ir.OpEnter) {
				pos++
			}
			in := u.MakeInstr(e, temp[e])
			insertedInstr[in] = true
			b.InsertAt(pos, in)
			st.Inserted++
		}
		for _, e := range botIns[b.ID] {
			in := u.MakeInstr(e, temp[e])
			insertedInstr[in] = true
			b.InsertAt(len(b.Instrs)-1, in) // before the terminator
			st.Inserted++
		}
	}

	// Rewrite every occurrence of a transformed expression.  Where the
	// cut proved h valid the occurrence becomes a copy; elsewhere it
	// recomputes through h so downstream labels stay honest (the Comp
	// forcing assumed exactly this).
	hValid := dataflow.NewBitSet(n)
	for _, b := range f.Blocks {
		hValid.CopyFrom(navail[b.ID])
		kept := make([]ir.InstrID, 0, len(b.Instrs))
		for _, inID := range b.Instrs {
			in := b.Fn.Instr(inID)
			if insertedInstr[in] {
				if k, ok := dataflow.KeyOf(in); ok {
					if e, found := u.Index[k]; found {
						hValid.Set(e)
					}
				}
				kept = append(kept, inID)
				continue
			}
			dstForKill := in.Dst
			if k, ok := dataflow.KeyOf(in); ok {
				if e, found := u.Index[k]; found && transformed.Has(e) {
					if hValid.Has(e) {
						kept = append(kept, f.NewCopy(in.Dst, temp[e]).ID())
						st.Replaced++
					} else {
						kept = append(kept, u.MakeInstr(e, temp[e]).ID(), f.NewCopy(in.Dst, temp[e]).ID())
						hValid.Set(e)
						st.Rewritten++
					}
					u.KillScan(hValid, dstForKill, false)
					continue
				}
			}
			kept = append(kept, inID)
			u.KillScan(hValid, dstForKill, in.Op.WritesMemory())
		}
		b.Instrs = kept
	}
	// The kept-slice rewrites above bypass the Block helpers.
	f.MarkCodeMutated()
	return st
}
