package suite

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPreCompareAllRoutines is the acceptance check for the alternate
// PRE backends: every suite routine, optimized at the partial level
// with each backend, must still compute its reference
// result (RunRoutineOpts validates it).  The static columns must be
// populated wherever the paper's backend found redundancy, and the
// worker fan-out must not change the table.
func TestPreCompareAllRoutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all routines × 2 backends")
	}
	ctx := context.Background()
	rows, err := PreCompare(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(All()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(All()))
	}
	var drEl, loEl int
	for _, r := range rows {
		for _, st := range []PreCompareStat{r.Drechsler, r.Lospre} {
			if st.Dyn <= 0 {
				t.Errorf("%s: non-positive dynamic count %+v", r.Name, st)
			}
		}
		drEl += r.Drechsler.Eliminated
		loEl += r.Lospre.Eliminated
	}
	// The suite is known to carry partial redundancies; a backend that
	// eliminates nothing anywhere is wired up wrong.
	if drEl == 0 || loEl == 0 {
		t.Errorf("a backend eliminated nothing across the whole suite: drechsler=%d lospre=%d",
			drEl, loEl)
	}

	var b strings.Builder
	WritePreCompare(&b, rows)
	out := b.String()
	for _, want := range []string{"drechsler", "lospre", "routine", rows[0].Name} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestPreCompareSerialParallelAgree: the canonical-output guarantee on
// a small slice of the suite (full agreement is implied by the row
// slice being index-addressed, but pin it anyway).
func TestPreCompareSerialParallelAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs routines twice")
	}
	ctx := context.Background()
	serial, err := PreCompare(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PreCompare(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	WritePreCompare(&a, serial)
	WritePreCompare(&b, parallel)
	if a.String() != b.String() {
		t.Error("serial and parallel precompare tables differ")
	}
}

// TestPreBackendsPreserveRoutineSemantics spot-checks that the partial
// level with a non-default backend still passes each routine's own
// result check at another level too (reassoc keeps its PRE slot).
func TestPreBackendsPreserveRoutineSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes routines at two levels")
	}
	ctx := context.Background()
	for _, r := range All()[:6] {
		for _, backend := range []core.PREBackend{core.PRELospre} {
			if _, err := RunRoutineOpts(ctx, r, core.LevelReassoc, core.OptimizeOptions{PRE: backend}); err != nil {
				t.Errorf("%s at reassoc with pre=%s: %v", r.Name, backend, err)
			}
		}
	}
}
