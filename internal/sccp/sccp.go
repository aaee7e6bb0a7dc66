// Package sccp implements sparse conditional constant propagation
// (Wegman and Zadeck), the "global constant propagation" that starts
// the paper's baseline optimization sequence (§4.1).
//
// The pass works on the IR as it stands, SSA or not, and never changes
// its form.  It first builds an implicit SSA graph for itself: one
// value per instruction definition, per enter parameter and per φ,
// with value 0 standing for an undefined register (⊤).  φs are placed
// on the fly while the blocks are walked in reverse postorder (Braun et
// al., "Simple and Efficient Construction of Static Single Assignment
// Form", CC 2013), so the pass needs neither a dominator tree nor
// liveness.  The solver keeps one lattice cell (⊤ / constant / ⊥) per
// value and drives two worklists: blocks reached by a newly executable
// CFG edge, and values that just got lower.  A φ meets only the operand
// on a newly executable edge or the operand that just got lower; it
// never re-scans its predecessors.
//
// A cbr takes one successor only on an integer-constant condition; a ⊤
// (undefined) or float condition takes both, and an executable edge
// stays executable.  Instructions whose results are constant are
// rewritten to loadI/loadF (copies excepted); conditional branches
// with constant conditions become jumps and unreachable code is
// removed.  DESIGN.md §7 explains why the output matches the dense
// solver this replaced, which kept a cell per (block, register).
package sccp

import (
	"math"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// lattice value kinds.
const (
	top    = 0 // unvisited / as-yet-unknown
	consti = 1
	constf = 2
	bottom = 3
)

type value struct {
	kind int8
	i    int64
	f    float64
}

func (v value) isConst() bool { return v.kind == consti || v.kind == constf }

// same reports whether two lattice values are identical.  Float
// constants compare by bit pattern: +0.0 and -0.0 are different
// constants, and a NaN constant equals itself.
func same(a, b value) bool {
	return a.kind == b.kind && a.i == b.i && math.Float64bits(a.f) == math.Float64bits(b.f)
}

// meet combines two lattice values.
func meet(a, b value) value {
	switch {
	case a.kind == top:
		return b
	case b.kind == top:
		return a
	case same(a, b):
		return a
	}
	return value{kind: bottom}
}

// Stats reports what constant propagation accomplished.
type Stats struct {
	Folded        int // instructions rewritten to constants
	BranchesFixed int // conditional branches made unconditional
	BlocksRemoved int
	// Evals counts instruction evaluations plus φ operand meets, the
	// solver's unit of work.  Each value gets lower at most twice, so
	// it is linear in the size of the implicit SSA graph.
	Evals int
}

// Changed reports whether the run modified the function.
func (s Stats) Changed() bool { return s.Folded+s.BranchesFixed+s.BlocksRemoved > 0 }

// Run performs conditional constant propagation on f in place.
func Run(f *ir.Func) Stats {
	return RunWith(f, analysis.NewCache(f))
}

// RunWith is Run drawing the reverse postorder from the given cache.
func RunWith(f *ir.Func, ac *analysis.Cache) Stats {
	var st Stats
	// Deleting unreachable blocks leaves the reverse postorder of the
	// rest as it was, so the cached one serves without a rebuild.
	rpo := ac.RPO()
	st.BlocksRemoved = ac.RemoveUnreachable()
	g := build(f, rpo)
	g.solve()
	st.Evals = g.evals

	// Rewrite: replace constant-valued pure instructions, then fix
	// branches whose conditions are known.
	for _, b := range f.Blocks {
		if !g.visited[b.ID] {
			continue
		}
		nodes := g.nodes[g.nodeStart[b.ID]:]
		for i := range b.Instrs {
			n := &nodes[i]
			instr := n.in
			// Copies are never rewritten: re-materializing a constant
			// at each copy would undo PRE's hoisting of loadI out of
			// loops (the copy is the coalescer's business).  Constant
			// *values* still propagate through copies for folding.
			if instr.Dst == ir.NoReg || instr.IsConst() || !instr.Op.Pure() ||
				instr.Op == ir.OpPhi || instr.Op == ir.OpCopy {
				continue
			}
			v := g.cell[n.def]
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
			v := g.cell[g.args[nodes[len(b.Instrs)-1].args]]
			if v.kind == consti {
				keep := b.Succs[0]
				drop := b.Succs[1]
				if v.i == 0 {
					keep, drop = drop, keep
				}
				ir.RemoveEdge(b, drop)
				b.Instrs[len(b.Instrs)-1] = f.NewInstr(ir.OpJump, ir.NoReg).ID()
				if len(b.Succs) != 1 || b.Succs[0] != keep {
					// RemoveEdge may have removed the wrong duplicate
					// when both targets coincide; normalize.
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
		// Folding assigns b.Instrs[i] directly, bypassing the Block
		// helpers.
		f.MarkCodeMutated()
	}
	st.BlocksRemoved += ac.RemoveUnreachable()
	return st
}

// graph is the implicit SSA form of one function plus the solver state
// over it.  Values are int32 IDs; 0 is the undefined value.
type graph struct {
	entry *ir.Block

	// One node per instruction, each block's nodes contiguous and in
	// instruction order.
	nodes     []node
	nodeStart []int32 // per block ID
	args      []int32 // operand values of every node

	phis    []phi
	phiOps  []int32 // operand values, one per predecessor slot
	opPhi   []int32 // the φ owning each phiOps slot
	phiList []int32 // live φs grouped by block: phiStart[b.ID]..phiStart[b.ID+1]
	phiOf   []int32 // per value: its φ index, or -1

	// uses[useStart[v]:useStart[v+1]] lists the uses of value v: a node
	// index, or ^i for phiOps slot i.
	uses     []int32
	useStart []int32
	phiStart []int32

	// CFG edges.  In-edge i of block b is slot inStart[b.ID]+i, in
	// predecessor order; succSlot maps out-edge k of b (at
	// outStart[b.ID]+k) to its predecessor index in the successor.
	inStart  []int32
	outStart []int32
	succSlot []int32

	// Construction (Braun et al.): the value of register r at the end
	// of block b (or at the current point of the block being filled)
	// is defs[key(b, r)]; fwd replaces trivial φs.
	defs    map[uint64]int32
	fwd     []int32
	sealed  []bool
	pending [][]pendingPhi

	// Solver.
	cell      []value
	exec      []bool // per in-edge slot
	reached   []bool // per block ID: an in-edge is executable
	visited   []bool // per block ID: its instructions have been evaluated
	queued    []bool // per value: on valWork
	valWork   []int32
	blockWork []*ir.Block
	buf       []value
	evals     int
}

type node struct {
	in    *ir.Instr
	block *ir.Block
	args  int32 // offset of the operand values in graph.args
	nargs int32
	def   int32 // value defined (enter: the first parameter), or 0
}

type phi struct {
	block    *ir.Block
	ops      int32   // offset of the operands in graph.phiOps
	val      int32   // the value it defines
	users    []int32 // φs with this one as an operand (construction only)
	complete bool    // all operands filled in
	dead     bool    // trivial, replaced through graph.fwd
}

type pendingPhi struct {
	reg ir.Reg
	phi int32
}

func key(b *ir.Block, r ir.Reg) uint64 { return uint64(b.ID)<<32 | uint64(uint32(r)) }

// build constructs the implicit SSA graph of f, whose blocks must all
// be reachable; rpo is their reverse postorder.
func build(f *ir.Func, rpo []*ir.Block) *graph {
	nb := len(f.Blocks)
	g := &graph{
		entry:     f.Entry(),
		nodeStart: make([]int32, nb),
		inStart:   make([]int32, nb+1),
		outStart:  make([]int32, nb+1),
		defs:      make(map[uint64]int32, f.InstrCount()),
		fwd:       []int32{0},
		phiOf:     []int32{-1},
		sealed:    make([]bool, nb),
		pending:   make([][]pendingPhi, nb),
	}
	for _, b := range f.Blocks {
		g.inStart[b.ID+1] = g.inStart[b.ID] + int32(len(b.Preds))
		g.outStart[b.ID+1] = g.outStart[b.ID] + int32(len(b.Succs))
	}
	g.succSlot = make([]int32, g.outStart[nb])
	occ := make([]int32, nb) // duplicate edges pair up in order
	for _, s := range f.Blocks {
		for j, p := range s.Preds {
			o := occ[p.ID]
			occ[p.ID]++
			for k, t := range p.Succs {
				if t == s {
					if o == 0 {
						g.succSlot[g.outStart[p.ID]+int32(k)] = int32(j)
						break
					}
					o--
				}
			}
		}
		for _, p := range s.Preds {
			occ[p.ID] = 0
		}
	}

	// Fill blocks in reverse postorder; a block is sealed once every
	// predecessor has been filled, which for a loop header is after
	// its last back-edge source.
	filled := make([]int32, nb)
	if len(g.entry.Preds) == 0 {
		g.sealed[g.entry.ID] = true
	}
	for _, b := range rpo {
		g.nodeStart[b.ID] = int32(len(g.nodes))
		for _, id := range b.Instrs {
			in := f.Instr(id)
			n := node{in: in, block: b, args: int32(len(g.args))}
			if in.Op == ir.OpEnter {
				for i, r := range in.Args {
					v := g.newValue()
					if i == 0 {
						n.def = v
					}
					g.defs[key(b, r)] = v
				}
			} else {
				for _, r := range in.Args {
					g.args = append(g.args, g.read(r, b))
				}
				n.nargs = int32(len(in.Args))
				if in.Dst != ir.NoReg {
					n.def = g.newValue()
					g.defs[key(b, in.Dst)] = n.def
				}
			}
			g.nodes = append(g.nodes, n)
		}
		for _, s := range b.Succs {
			filled[s.ID]++
			if int(filled[s.ID]) == len(s.Preds) {
				g.seal(s)
			}
		}
	}
	g.defs, g.pending = nil, nil
	for i, v := range g.args {
		g.args[i] = g.find(v)
	}

	// Index the live φs by block and every use by value.
	g.phiStart = make([]int32, nb+1)
	nvals := len(g.fwd)
	g.useStart = make([]int32, nvals+1)
	for _, v := range g.args {
		g.useStart[v+1]++
	}
	for p := range g.phis {
		ph := &g.phis[p]
		if ph.dead {
			continue
		}
		g.phiStart[ph.block.ID+1]++
		ops := g.phiOps[ph.ops : ph.ops+int32(len(ph.block.Preds))]
		for j, v := range ops {
			ops[j] = g.find(v)
			g.useStart[ops[j]+1]++
		}
	}
	for b := 0; b < nb; b++ {
		g.phiStart[b+1] += g.phiStart[b]
	}
	g.useStart[1] = 0 // value 0 never changes, so its uses need no list
	for v := 0; v < nvals; v++ {
		g.useStart[v+1] += g.useStart[v]
	}
	g.phiList = make([]int32, g.phiStart[nb])
	g.uses = make([]int32, g.useStart[nvals])
	nextPhi := append([]int32(nil), g.phiStart[:nb]...)
	nextUse := append([]int32(nil), g.useStart[:nvals]...)
	addUse := func(v, u int32) {
		if v != 0 {
			g.uses[nextUse[v]] = u
			nextUse[v]++
		}
	}
	for k := range g.nodes {
		n := &g.nodes[k]
		for _, v := range g.args[n.args : n.args+n.nargs] {
			addUse(v, int32(k))
		}
	}
	for p := range g.phis {
		ph := &g.phis[p]
		if ph.dead {
			continue
		}
		g.phiList[nextPhi[ph.block.ID]] = int32(p)
		nextPhi[ph.block.ID]++
		for i := ph.ops; i < ph.ops+int32(len(ph.block.Preds)); i++ {
			addUse(g.phiOps[i], ^i)
		}
		ph.users = nil
	}
	return g
}

func (g *graph) newValue() int32 {
	v := int32(len(g.fwd))
	g.fwd = append(g.fwd, v)
	g.phiOf = append(g.phiOf, -1)
	return v
}

// find resolves a value through the replacements of trivial φs.
func (g *graph) find(v int32) int32 {
	for g.fwd[v] != v {
		g.fwd[v] = g.fwd[g.fwd[v]]
		v = g.fwd[v]
	}
	return v
}

// read returns the value register r holds at the current end of block b.
func (g *graph) read(r ir.Reg, b *ir.Block) int32 {
	if v, ok := g.defs[key(b, r)]; ok {
		return g.find(v)
	}
	var v int32
	switch {
	case !g.sealed[b.ID]:
		p := g.newPhi(b)
		g.pending[b.ID] = append(g.pending[b.ID], pendingPhi{r, p})
		v = g.phis[p].val
	case len(b.Preds) == 0:
		v = 0
	case len(b.Preds) == 1 && b != g.entry:
		v = g.read(r, b.Preds[0])
	default:
		p := g.newPhi(b)
		g.defs[key(b, r)] = g.phis[p].val // breaks cycles through loops
		v = g.addOperands(r, p)
	}
	g.defs[key(b, r)] = v
	return v
}

func (g *graph) newPhi(b *ir.Block) int32 {
	p := int32(len(g.phis))
	v := g.newValue()
	g.phiOf[v] = p
	g.phis = append(g.phis, phi{block: b, ops: int32(len(g.phiOps)), val: v})
	for range b.Preds {
		g.phiOps = append(g.phiOps, 0)
		g.opPhi = append(g.opPhi, p)
	}
	return p
}

// seal fills in the operands of the φs placed in b while some of its
// predecessors were still unfilled.
func (g *graph) seal(b *ir.Block) {
	for i := 0; i < len(g.pending[b.ID]); i++ {
		pp := g.pending[b.ID][i]
		g.addOperands(pp.reg, pp.phi)
	}
	g.pending[b.ID] = nil
	g.sealed[b.ID] = true
}

func (g *graph) addOperands(r ir.Reg, p int32) int32 {
	b := g.phis[p].block
	for j, pred := range b.Preds {
		op := g.read(r, pred)
		g.phiOps[g.phis[p].ops+int32(j)] = op
		if q := g.phiOf[op]; q >= 0 && q != p {
			g.phis[q].users = append(g.phis[q].users, p)
		}
	}
	g.phis[p].complete = true
	return g.tryRemoveTrivial(p)
}

// tryRemoveTrivial replaces φ p by its only operand other than itself,
// if it has one, and returns p's value or the replacement.  The
// entry block's φs carry an implicit undefined operand for the
// function's entry.
func (g *graph) tryRemoveTrivial(p int32) int32 {
	ph := g.phis[p]
	only := int32(-1)
	if ph.block == g.entry {
		only = 0
	}
	for _, op := range g.phiOps[ph.ops : ph.ops+int32(len(ph.block.Preds))] {
		op = g.find(op)
		if op == only || op == ph.val {
			continue
		}
		if only >= 0 {
			return ph.val
		}
		only = op
	}
	if only < 0 {
		only = 0
	}
	g.phis[p].dead = true
	g.phis[p].users = nil
	g.fwd[ph.val] = only
	if q := g.phiOf[only]; q >= 0 {
		g.phis[q].users = append(g.phis[q].users, ph.users...)
	}
	for _, u := range ph.users {
		if u != p && g.phis[u].complete && !g.phis[u].dead {
			g.tryRemoveTrivial(u)
		}
	}
	return only
}

// solve runs the Wegman–Zadeck fixpoint from the entry block.
func (g *graph) solve() {
	nvals, nb := len(g.fwd), len(g.nodeStart)
	g.cell = make([]value, nvals)
	g.queued = make([]bool, nvals)
	g.exec = make([]bool, g.inStart[nb])
	g.reached = make([]bool, nb)
	g.visited = make([]bool, nb)
	g.reached[g.entry.ID] = true
	g.blockWork = append(g.blockWork, g.entry)
	for {
		// Values first: a block is evaluated only once every lowered
		// value has reached its φs, so no φ on an executable edge
		// reads as ⊤ merely because its operand is still queued.
		if n := len(g.valWork); n > 0 {
			v := g.valWork[n-1]
			g.valWork = g.valWork[:n-1]
			g.queued[v] = false
			g.propagate(v)
			continue
		}
		n := len(g.blockWork)
		if n == 0 {
			return
		}
		b := g.blockWork[n-1]
		g.blockWork = g.blockWork[:n-1]
		g.visited[b.ID] = true
		nodes := g.nodeStart[b.ID]
		for k := nodes; k < nodes+int32(len(b.Instrs)); k++ {
			g.eval(k)
		}
		if t := b.Terminator(); t == nil || t.Op != ir.OpCBr {
			for k := range b.Succs {
				g.markEdge(b, k)
			}
		}
	}
}

// propagate re-evaluates the uses of value v, which just got lower:
// instructions in visited blocks, and φ operands on executable edges.
func (g *graph) propagate(v int32) {
	c := g.cell[v]
	for _, u := range g.uses[g.useStart[v]:g.useStart[v+1]] {
		if u >= 0 {
			if g.visited[g.nodes[u].block.ID] {
				g.eval(u)
			}
			continue
		}
		ph := &g.phis[g.opPhi[^u]]
		if g.exec[g.inStart[ph.block.ID]+^u-ph.ops] {
			g.evals++
			g.lower(ph.val, meet(g.cell[ph.val], c))
		}
	}
}

// eval re-evaluates node k from its operands' current values.
func (g *graph) eval(k int32) {
	g.evals++
	n := &g.nodes[k]
	switch {
	case n.in.Op == ir.OpEnter:
		for v := n.def; v < n.def+int32(len(n.in.Args)); v++ {
			g.lower(v, value{kind: bottom})
		}
	case n.in.Op == ir.OpCBr:
		// Only a known integer condition rules an edge out; ⊤ and
		// float conditions take both.
		if c := g.cell[g.args[n.args]]; c.kind != consti {
			g.markEdge(n.block, 0)
			g.markEdge(n.block, 1)
		} else if c.i != 0 {
			g.markEdge(n.block, 0)
		} else {
			g.markEdge(n.block, 1)
		}
	case n.def != 0:
		buf := g.buf[:0]
		for _, v := range g.args[n.args : n.args+n.nargs] {
			buf = append(buf, g.cell[v])
		}
		g.buf = buf
		g.lower(n.def, transfer(n.in, buf))
	}
}

// lower sets value v's cell to x, queueing v's uses if it changed.
func (g *graph) lower(v int32, x value) {
	if same(g.cell[v], x) {
		return
	}
	g.cell[v] = x
	if !g.queued[v] {
		g.queued[v] = true
		g.valWork = append(g.valWork, v)
	}
}

// markEdge makes out-edge k of b executable: the successor's φs meet
// their operand for that edge, and the successor is reached the first
// time.  An operand still queued is met when it is popped instead, so
// no φ operand is met more than twice.
func (g *graph) markEdge(b *ir.Block, k int) {
	s := b.Succs[k]
	j := g.succSlot[g.outStart[b.ID]+int32(k)]
	e := g.inStart[s.ID] + j
	if g.exec[e] {
		return
	}
	g.exec[e] = true
	for _, p := range g.phiList[g.phiStart[s.ID]:g.phiStart[s.ID+1]] {
		ph := &g.phis[p]
		op := g.phiOps[ph.ops+j]
		if c := g.cell[op]; c.kind != top && !g.queued[op] {
			g.evals++
			g.lower(ph.val, meet(g.cell[ph.val], c))
		}
	}
	if !g.reached[s.ID] {
		g.reached[s.ID] = true
		g.blockWork = append(g.blockWork, s)
	}
}

// transfer returns the value an instruction defines given its
// operands' values.  Enter and branches are the solver's business.
func transfer(in *ir.Instr, args []value) value {
	bot := value{kind: bottom}
	switch in.Op {
	case ir.OpLoadI:
		return value{kind: consti, i: in.Imm}
	case ir.OpLoadF:
		return value{kind: constf, f: in.FImm}
	case ir.OpCopy:
		return args[0]
	case ir.OpPhi:
		// A φ already in the input meets every operand as it stands
		// at the φ, whichever edge it arrives on (correct, though
		// weaker than the solver's own per-edge φs).
		v := value{kind: top}
		for _, a := range args {
			v = meet(v, a)
		}
		return v
	case ir.OpCall, ir.OpLoadW, ir.OpLoadD, ir.OpLoadS:
		return bot
	}
	// Pure arithmetic: fold when all operands are constants.
	allConst := true
	anyBottom := false
	for _, a := range args {
		if !a.isConst() {
			allConst = false
		}
		if a.kind == bottom {
			anyBottom = true
		}
	}
	if !allConst {
		if anyBottom {
			return bot
		}
		return value{kind: top}
	}
	if v, ok := foldOp(in.Op, args); ok {
		return v
	}
	return bot
}

// foldOp evaluates a pure operation over constant operands.  Division
// or modulus by zero refuses to fold (the runtime will trap).
func foldOp(op ir.Op, a []value) (value, bool) {
	ci := func(x int64) (value, bool) { return value{kind: consti, i: x}, true }
	cf := func(x float64) (value, bool) { return value{kind: constf, f: x}, true }
	b2i := func(x bool) (value, bool) {
		if x {
			return ci(1)
		}
		return ci(0)
	}
	switch op {
	case ir.OpAdd:
		return ci(a[0].i + a[1].i)
	case ir.OpSub:
		return ci(a[0].i - a[1].i)
	case ir.OpMul:
		return ci(a[0].i * a[1].i)
	case ir.OpDiv:
		if a[1].i == 0 {
			return value{}, false
		}
		return ci(a[0].i / a[1].i)
	case ir.OpMod:
		if a[1].i == 0 {
			return value{}, false
		}
		return ci(a[0].i % a[1].i)
	case ir.OpNeg:
		return ci(-a[0].i)
	case ir.OpAnd:
		return ci(a[0].i & a[1].i)
	case ir.OpOr:
		return ci(a[0].i | a[1].i)
	case ir.OpXor:
		return ci(a[0].i ^ a[1].i)
	case ir.OpNot:
		return ci(^a[0].i)
	case ir.OpShl:
		return ci(a[0].i << uint64(a[1].i&63))
	case ir.OpShr:
		return ci(a[0].i >> uint64(a[1].i&63))
	case ir.OpMin:
		return ci(min(a[0].i, a[1].i))
	case ir.OpMax:
		return ci(max(a[0].i, a[1].i))
	case ir.OpAbs:
		if a[0].i < 0 {
			return ci(-a[0].i)
		}
		return ci(a[0].i)
	case ir.OpFAdd:
		return cf(a[0].f + a[1].f)
	case ir.OpFSub:
		return cf(a[0].f - a[1].f)
	case ir.OpFMul:
		return cf(a[0].f * a[1].f)
	case ir.OpFDiv:
		return cf(a[0].f / a[1].f)
	case ir.OpFNeg:
		return cf(-a[0].f)
	case ir.OpFMin:
		return cf(math.Min(a[0].f, a[1].f))
	case ir.OpFMax:
		return cf(math.Max(a[0].f, a[1].f))
	case ir.OpSqrt:
		return cf(math.Sqrt(a[0].f))
	case ir.OpFAbs:
		return cf(math.Abs(a[0].f))
	case ir.OpI2F:
		return cf(float64(a[0].i))
	case ir.OpF2I:
		return ci(int64(a[0].f))
	case ir.OpCmpEQ:
		return b2i(a[0].i == a[1].i)
	case ir.OpCmpNE:
		return b2i(a[0].i != a[1].i)
	case ir.OpCmpLT:
		return b2i(a[0].i < a[1].i)
	case ir.OpCmpLE:
		return b2i(a[0].i <= a[1].i)
	case ir.OpCmpGT:
		return b2i(a[0].i > a[1].i)
	case ir.OpCmpGE:
		return b2i(a[0].i >= a[1].i)
	case ir.OpFCmpEQ:
		return b2i(a[0].f == a[1].f)
	case ir.OpFCmpNE:
		return b2i(a[0].f != a[1].f)
	case ir.OpFCmpLT:
		return b2i(a[0].f < a[1].f)
	case ir.OpFCmpLE:
		return b2i(a[0].f <= a[1].f)
	case ir.OpFCmpGT:
		return b2i(a[0].f > a[1].f)
	case ir.OpFCmpGE:
		return b2i(a[0].f >= a[1].f)
	}
	return value{}, false
}

// Fold exposes constant evaluation of a single pure instruction whose
// operands are the given constant lattice values; peephole reuses it.
func Fold(op ir.Op, ints []int64, floats []float64, isFloat []bool) (int64, float64, bool, bool) {
	args := make([]value, len(ints))
	for i := range args {
		if isFloat[i] {
			args[i] = value{kind: constf, f: floats[i]}
		} else {
			args[i] = value{kind: consti, i: ints[i]}
		}
	}
	v, ok := foldOp(op, args)
	if !ok {
		return 0, 0, false, false
	}
	return v.i, v.f, v.kind == constf, true
}
