package suite

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lospre"
	"repro/internal/pre"
)

// PreCompareStat is one backend's effect on one routine: the static
// transformation counts at the pipeline's PRE position and the
// end-to-end dynamic operation count at the partial level.
type PreCompareStat struct {
	// Inserted counts computations the backend inserted (on edges for
	// drechsler, at block boundaries for lospre), summed over
	// functions and fixpoint rounds.
	Inserted int
	// Eliminated counts original computations the backend removed or
	// rewrote into copies: Deleted+Rewritten for drechsler (Mode A
	// removals plus Mode B copy rewrites), Replaced for lospre.
	Eliminated int
	// Dyn is the routine's dynamic operation count optimized at the
	// partial level with this backend, validated against the reference
	// result.
	Dyn int64
}

// PreCompareRow compares the two PRE backends on one suite routine.
//
// The static columns measure each backend on the identical input — the
// routine normalized exactly as the partial pipeline would normalize it
// before its PRE slot — so insertion/elimination counts are directly
// comparable.  The dynamic columns then measure the full partial
// pipeline per backend, where the downstream cleanup passes (sccp,
// peephole, dce, coalesce) have consumed the compensation copies each
// backend leaves behind.
type PreCompareRow struct {
	Name      string
	Drechsler PreCompareStat
	Lospre    PreCompareStat
}

// stat returns the row's entry for a backend.
func (r *PreCompareRow) stat(b core.PREBackend) *PreCompareStat {
	if b == core.PRELospre {
		return &r.Lospre
	}
	return &r.Drechsler
}

// preCompareRow measures one routine.  Each backend recompiles the
// routine so both see the identical input form.
func preCompareRow(ctx context.Context, r Routine) (PreCompareRow, error) {
	row := PreCompareRow{Name: r.Name}
	normalize, err := core.PassByName("normalize")
	if err != nil {
		return row, err
	}
	for _, backend := range core.PREBackends {
		st := row.stat(backend)

		// Static effect at the PRE position: normalize first, exactly
		// as the partial pipeline does before its PRE slot.
		prog, err := r.Compile()
		if err != nil {
			return row, fmt.Errorf("%s: %w", r.Name, err)
		}
		for _, f := range prog.Funcs {
			if err := ctx.Err(); err != nil {
				return row, err
			}
			ac := analysis.NewCache(f)
			normalize.Run(&core.PassContext{Ctx: ctx, Func: f, Analyses: ac})
			if backend == core.PRELospre {
				s := lospre.RunToFixpointWith(f, ac)
				st.Inserted += s.Inserted
				st.Eliminated += s.Replaced
			} else {
				s := pre.RunToFixpointWith(f, ac)
				st.Inserted += s.Inserted
				st.Eliminated += s.Deleted + s.Rewritten
			}
		}

		// End-to-end effect: the whole partial pipeline with this
		// backend in the PRE slot, checked against the reference.
		n, err := RunRoutineOpts(ctx, r, core.LevelPartial, core.OptimizeOptions{PRE: backend})
		if err != nil {
			return row, fmt.Errorf("%s pre=%s: %w", r.Name, backend, err)
		}
		st.Dyn = n
	}
	return row, nil
}

// PreCompare measures every suite routine with both PRE backends,
// fanning out across up to workers goroutines (workers <= 1 is
// serial).  Rows sort by name, so the table is canonical for any
// worker count.
func PreCompare(ctx context.Context, workers int) ([]PreCompareRow, error) {
	routines := All()
	rows := make([]PreCompareRow, len(routines))
	errs := make([]error, len(routines))

	if workers <= 1 {
		for i, r := range routines {
			rows[i], errs[i] = preCompareRow(ctx, r)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, r := range routines {
			wg.Add(1)
			go func(i int, r Routine) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rows[i], errs[i] = preCompareRow(ctx, r)
			}(i, r)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// WritePreCompare renders the comparison as an aligned text table: one
// ins/elim/dyn column group per backend.
func WritePreCompare(w io.Writer, rows []PreCompareRow) {
	fmt.Fprintf(w, "%-12s %23s  %23s\n", "", "drechsler", "lospre")
	fmt.Fprintf(w, "%-12s %5s %5s %11s  %5s %5s %11s\n",
		"routine", "ins", "elim", "dyn", "ins", "elim", "dyn")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %5d %5d %11d  %5d %5d %11d\n",
			r.Name,
			r.Drechsler.Inserted, r.Drechsler.Eliminated, r.Drechsler.Dyn,
			r.Lospre.Inserted, r.Lospre.Eliminated, r.Lospre.Dyn)
	}
}
