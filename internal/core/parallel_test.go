package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/minift"
)

// multiFuncSrc has several functions so function-level parallelism has
// something to fan out over.
const multiFuncSrc = `
func a(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * n
    }
    return s
}

func b(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + (i + n) * (i + n)
    }
    return s
}

func c(x: real, n: int): real {
    var s: real = 0.0
    for i = 1 to n {
        s = s + x * x
    }
    return s
}

func driver(n: int): int {
    return a(n) + b(n)
}
`

// TestOptimizeWithParallelIdentical: the parallel driver produces
// byte-identical output to the serial one at every level.
func TestOptimizeWithParallelIdentical(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range Levels {
		serial, err := OptimizeWith(prog, level, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := OptimizeWith(prog, level, OptimizeOptions{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if serial.String() != par.String() {
			t.Errorf("%s: parallel output differs from serial", level)
		}
	}
}

// TestOptimizeConcurrentDistinctPrograms is the shared-mutable-state
// audit: many goroutines optimizing distinct programs at once must not
// race (the race detector enforces this under `go test -race`, which
// make check runs).
func TestOptimizeConcurrentDistinctPrograms(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := minift.Compile(multiFuncSrc)
			if err != nil {
				t.Error(err)
				return
			}
			for _, level := range Levels {
				if _, err := Optimize(prog, level); err != nil {
					t.Errorf("%s: %v", level, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestOptimizeWithCancelled: a dead context stops the optimization with
// an error wrapping the context error, serial and parallel alike.
func TestOptimizeWithCancelled(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := OptimizeWith(prog, LevelDist, OptimizeOptions{Ctx: ctx, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}

// TestOptimizeWithOnPass: the per-pass hook observes every pass
// application on every function, with sane durations.
func TestOptimizeWithOnPass(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := map[string]int{}
	_, err = OptimizeWith(prog, LevelReassoc, OptimizeOptions{
		Workers: 4,
		OnPass: func(info PassInfo) {
			if info.Duration < 0 {
				t.Errorf("negative duration for %s on %s", info.Pass, info.Func)
			}
			mu.Lock()
			count[info.Pass]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nfuncs := len(prog.Funcs)
	want := map[string]int{}
	for _, pass := range PassNames(LevelReassoc) {
		want[pass] += nfuncs // some passes (dce) run more than once per level
	}
	for pass, n := range want {
		if count[pass] != n {
			t.Errorf("pass %s observed %d times, want %d", pass, count[pass], n)
		}
	}
}

// TestCheckedRunCtxCancelled: the checked pipeline fails cleanly —
// error wrapping the context error, no spurious miscompile diagnostics
// — when its context dies.
func TestCheckedRunCtxCancelled(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	passes, err := passesForLevel(LevelDist, PREDrechsler)
	if err != nil {
		t.Fatal(err)
	}
	_, diags, err := CheckedRunCtx(ctx, prog, passes, DefaultCheckConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, d := range diags {
		t.Errorf("cancellation produced a diagnostic: %s", d)
	}
}

// TestCheckedRunCtxDeadline: a deadline long enough to start but too
// short to validate everything still yields a clean timeout, never a
// bogus validation failure.
func TestCheckedRunCtxDeadline(t *testing.T) {
	prog, err := minift.Compile(multiFuncSrc)
	if err != nil {
		t.Fatal(err)
	}
	passes, err := passesForLevel(LevelDist, PREDrechsler)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep a few tiny budgets; at least the smallest should expire
	// mid-run, and whenever one does the failure must be the clean
	// timeout shape.
	for _, budget := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		_, diags, err := CheckedRunCtx(ctx, prog, passes, DefaultCheckConfig())
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("budget %v: non-timeout error: %v", budget, err)
		}
		if err != nil {
			for _, d := range diags {
				t.Errorf("budget %v: timeout produced diagnostic: %s", budget, d)
			}
		}
	}
}
