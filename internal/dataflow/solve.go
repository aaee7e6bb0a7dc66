package dataflow

import "repro/internal/ir"

// This file hosts the generic unidirectional bitvector solvers used by
// the speculative backend (internal/lospre).  Both solvers handle
// all-paths ("must") problems to the greatest fixed point: the meet
// intersects the neighboring solutions, and a block with no CFG
// neighbors on the meet side gets the empty set, the conventional
// boundary for ANTOUT at exits and AVIN at the entry.  internal/pre
// keeps its hand-rolled loops: its equations are edge-based and its
// output is golden-pinned, so it is deliberately not migrated onto
// these entry points.

// meetInto overwrites dst with the intersection of sets[b.ID] over the
// given neighbor blocks.  No neighbors yields ∅.
func meetInto(dst *BitSet, neighbors []*ir.Block, sets []*BitSet) {
	if len(neighbors) == 0 {
		dst.ClearAll()
		return
	}
	dst.SetAll()
	for _, nb := range neighbors {
		dst.Intersect(sets[nb.ID])
	}
}

// SolveForward iterates a forward all-paths bitvector problem to
// fixpoint over the reachable blocks in reverse postorder.  in and out
// are block-ID-indexed vectors (as produced by one NewBitSetFamily call
// per direction); the caller seeds out full, except where boundary
// conditions say otherwise.  Each step intersects the predecessors'
// out-sets into in[b.ID], then calls transfer to compute the block's
// new out-set into dst — one vector, shared by every step, that the
// callback must fully overwrite.  Iteration stops when no out-set
// changes.  All blocks named by Preds edges must be present in rpo
// (run analysis.Cache.RemoveUnreachable first).
func SolveForward(rpo []*ir.Block, in, out []*BitSet, transfer func(b *ir.Block, in, dst *BitSet)) {
	if len(rpo) == 0 {
		return
	}
	dst := NewBitSet(out[rpo[0].ID].Len())
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			meetInto(in[b.ID], b.Preds, out)
			transfer(b, in[b.ID], dst)
			if !dst.Equal(out[b.ID]) {
				out[b.ID].CopyFrom(dst)
				changed = true
			}
		}
	}
}

// SolveBackward is SolveForward's mirror: it iterates in postorder
// (reverse RPO), intersects the successors' in-sets into out[b.ID], and
// calls transfer to compute the block's new in-set into dst.  The
// caller seeds in full.
func SolveBackward(rpo []*ir.Block, out, in []*BitSet, transfer func(b *ir.Block, out, dst *BitSet)) {
	if len(rpo) == 0 {
		return
	}
	dst := NewBitSet(in[rpo[0].ID].Len())
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			meetInto(out[b.ID], b.Succs, in)
			transfer(b, out[b.ID], dst)
			if !dst.Equal(in[b.ID]) {
				in[b.ID].CopyFrom(dst)
				changed = true
			}
		}
	}
}
