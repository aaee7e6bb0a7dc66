package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Liveness holds per-block live-in/live-out register sets.
//
// Only a non-local register can be live across a block boundary: one
// that some block uses before defining it, or that is a φ operand (the
// "non-locals" of semi-pruned SSA; Briggs, Cooper, Harvey and Simpson,
// SPE 1998).  Every other register is born and dies inside one block.
// The solver numbers the non-locals densely and keeps its sets over
// that universe alone, so a solve costs blocks × non-locals rather than
// blocks × the function's whole register namespace — which, with
// register numbers never reused, grows with every pass.  Consumers ask
// membership questions or load a block's live-out into a SparseSet
// indexed by register; no full-width set is exposed.
type Liveness struct {
	regs    []ir.Reg  // dense index → register, ascending
	index   []int32   // register → dense index, -1 for local registers
	in, out []*BitSet // indexed by block ID, capacity len(regs)
	words   int
}

// ComputeLiveness solves backward liveness over the CFG.  φ-nodes are
// treated the standard way: a φ's operands are live out of the
// corresponding predecessor, not live into the φ's own block.
func ComputeLiveness(f *ir.Func) *Liveness {
	livenessBuilds.Add(1)
	nb := len(f.Blocks)
	nr := f.NumRegs()

	// Find the non-locals.  definedIn[r] is 1 + the ID of the block
	// being scanned once it has defined r there, and index[r] is set
	// to 0 for each non-local found, before the dense numbering below.
	lv := &Liveness{index: make([]int32, nr)}
	for i := range lv.index {
		lv.index[i] = -1
	}
	definedIn := make([]int32, nr)
	for _, b := range f.Blocks {
		stamp := int32(b.ID + 1)
		for ii := range b.Instrs {
			in := b.Instr(ii)
			if in.Op == ir.OpPhi {
				for _, a := range in.Args {
					lv.index[a] = 0
				}
			} else {
				for _, a := range in.Args {
					if definedIn[a] != stamp {
						lv.index[a] = 0
					}
				}
			}
			if in.Dst != ir.NoReg {
				definedIn[in.Dst] = stamp
			}
		}
	}
	for r, x := range lv.index {
		if x == 0 {
			lv.index[r] = int32(len(lv.regs))
			lv.regs = append(lv.regs, ir.Reg(r))
		}
	}

	m := len(lv.regs)
	sets := NewBitSetFamily(4*nb, m)
	lv.in, lv.out = sets[:nb], sets[nb:2*nb]
	use := sets[2*nb : 3*nb] // upward-exposed non-φ uses
	def := sets[3*nb:]       // non-locals defined in block
	for _, b := range f.Blocks {
		u, d := use[b.ID], def[b.ID]
		for ii := range b.Instrs {
			in := b.Instr(ii)
			// φ defs happen "on entry"; φ uses are charged to the
			// predecessors during the fixed-point loop below.
			if in.Op != ir.OpPhi {
				for _, a := range in.Args {
					if x := int(lv.index[a]); x >= 0 && !d.Has(x) {
						u.Set(x)
					}
				}
			}
			if in.Dst != ir.NoReg {
				if x := lv.index[in.Dst]; x >= 0 {
					d.Set(int(x))
				}
			}
		}
	}

	// Iterate to fixed point in postorder (reverse RPO) for speed.
	// One scratch vector serves every block and every round.
	w := (m + 63) / 64
	rpo := cfg.ReversePostorder(f)
	tmp := NewBitSet(m)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := lv.out[b.ID]
			for _, s := range b.Succs {
				if out.Union(lv.in[s.ID]) {
					changed = true
				}
				lv.words += w
				// φ operands flowing along this edge.
				pi := s.PredIndex(b)
				for _, pid := range s.Phis() {
					phi := f.Instr(pid)
					if pi < len(phi.Args) {
						if x := int(lv.index[phi.Args[pi]]); !out.Has(x) {
							out.Set(x)
							changed = true
						}
					}
				}
			}
			tmp.CopyFrom(out)
			tmp.Subtract(def[b.ID])
			tmp.Union(use[b.ID])
			lv.words += 4 * w // the three steps above and the compare
			if !tmp.Equal(lv.in[b.ID]) {
				lv.in[b.ID].CopyFrom(tmp)
				lv.words += w
				changed = true
			}
		}
	}
	return lv
}

// has reports whether register r is in one of the solver's sets.
// Registers outside the namespace the solve saw are never live.
func (lv *Liveness) has(sets []*BitSet, b *ir.Block, r ir.Reg) bool {
	if int(r) >= len(lv.index) || lv.index[r] < 0 {
		return false
	}
	return sets[b.ID].Has(int(lv.index[r]))
}

// LiveInHas reports whether register r is live on entry to b.
func (lv *Liveness) LiveInHas(b *ir.Block, r ir.Reg) bool { return lv.has(lv.in, b, r) }

// LiveOutHas reports whether register r is live on exit from b.
func (lv *Liveness) LiveOutHas(b *ir.Block, r ir.Reg) bool { return lv.has(lv.out, b, r) }

// LoadLiveOut replaces the contents of s, a set over register numbers,
// with b's live-out registers.  It costs the non-local universe's words
// plus the members, independent of the register namespace, so a
// backward walk can reuse one set for every block.
func (lv *Liveness) LoadLiveOut(b *ir.Block, s *SparseSet) {
	s.Clear()
	lv.out[b.ID].ForEach(func(x int) { s.Add(int(lv.regs[x])) })
}

// WordsTouched returns the number of bit-vector words the fixed-point
// iteration read or wrote: a deterministic measure of the solve's
// cost, for work-counter tests.
func (lv *Liveness) WordsTouched() int { return lv.words }
