package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLoadgenWritesReport: the loadgen subcommand runs its in-process
// scenario suite (single, batch, warm-restart) over a tiny corpus with
// verification on, and writes the loadgen report schema with the
// fields the acceptance criteria read: batch speedup, first-pass hit
// rate after a restart, zero errors.
func TestLoadgenWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := filepath.Join(t.TempDir(), "loadgen.json")
	code, stdout, stderr := runEpre(t, "loadgen",
		"-out", out, "-requests", "24", "-corpus-n", "6", "-workers", "4", "-batch", "6")
	if code != 0 {
		t.Fatalf("loadgen failed: %s\n%s", stderr, stdout)
	}
	if !strings.Contains(stdout, "report written to") || !strings.Contains(stdout, "batch speedup") {
		t.Errorf("missing summary:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgenReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if rep.Tool != "epre loadgen" || rep.PipelineVersion == "" || !rep.Verified {
		t.Errorf("implausible header: %+v", rep)
	}
	if rep.CorpusPrograms != 6 {
		t.Errorf("corpus_programs = %d, want 6", rep.CorpusPrograms)
	}
	if len(rep.Scenarios) != 3 {
		t.Fatalf("%d scenarios, want 3", len(rep.Scenarios))
	}
	byName := map[string]scenarioResult{}
	for _, sc := range rep.Scenarios {
		byName[sc.Name] = sc
		if sc.Errors != 0 || sc.Counters.Errors != 0 {
			t.Errorf("scenario %s saw errors: %d client, %d server", sc.Name, sc.Errors, sc.Counters.Errors)
		}
		if sc.ItemsPerSec <= 0 || sc.WallSeconds <= 0 {
			t.Errorf("scenario %s has no throughput: %+v", sc.Name, sc)
		}
		if len(sc.Histogram) == 0 || sc.P99Millis < sc.P50Millis {
			t.Errorf("scenario %s histogram implausible: p50=%v p99=%v buckets=%d",
				sc.Name, sc.P50Millis, sc.P99Millis, len(sc.Histogram))
		}
		var total int64
		for _, b := range sc.Histogram {
			total += b.Count
		}
		if total != int64(sc.Requests) {
			t.Errorf("scenario %s histogram holds %d samples for %d requests", sc.Name, total, sc.Requests)
		}
	}
	single, ok1 := byName["single"]
	batch, ok2 := byName["batch"]
	warm, ok3 := byName["warm-restart"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing scenarios: %v", byName)
	}
	// Each fresh server computed every distinct program exactly once;
	// the rest of the schedule was hits.
	if single.Counters.CacheMisses != 6 || batch.Counters.CacheMisses != 6 {
		t.Errorf("misses = %d/%d, want 6/6", single.Counters.CacheMisses, batch.Counters.CacheMisses)
	}
	if single.Items != 24 || batch.Items != 24 {
		t.Errorf("items = %d/%d, want 24/24", single.Items, batch.Items)
	}
	if batch.Requests >= single.Requests {
		t.Errorf("batching did not reduce request count: %d vs %d", batch.Requests, single.Requests)
	}
	if batch.Counters.BatchItems != 24 {
		t.Errorf("batch_items = %d, want 24", batch.Counters.BatchItems)
	}
	if rep.BatchSpeedup <= 0 {
		t.Errorf("batch_speedup = %v, want > 0", rep.BatchSpeedup)
	}
	// The restart-warming acceptance: the first post-restart pass is
	// answered from the warmed cache/disk, not recomputed.
	if warm.FirstPassHitRate <= 0 {
		t.Errorf("first_pass_hit_rate = %v, want > 0", warm.FirstPassHitRate)
	}
	if warm.Counters.CacheMisses != 0 {
		t.Errorf("warm pass recomputed %d programs", warm.Counters.CacheMisses)
	}
	if warm.Counters.DiskWarmed != 6 {
		t.Errorf("disk_warmed = %d, want 6", warm.Counters.DiskWarmed)
	}
}

// TestLoadgenOpenLoop: with -qps the schedule is open-loop — the run
// takes at least requests/qps wall time and still verifies.
func TestLoadgenOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := filepath.Join(t.TempDir(), "loadgen.json")
	t0 := time.Now()
	code, _, stderr := runEpre(t, "loadgen",
		"-out", out, "-requests", "8", "-corpus-n", "2", "-workers", "2",
		"-batch", "2", "-qps", "50")
	if code != 0 {
		t.Fatalf("loadgen failed: %s", stderr)
	}
	// Scenario 1 alone paces 8 single requests at 50/s ≈ 140ms.
	if elapsed := time.Since(t0); elapsed < 100*time.Millisecond {
		t.Errorf("open-loop run finished in %v; pacing not applied", elapsed)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgenReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, sc := range rep.Scenarios {
		if sc.Name != "warm-restart" && sc.TargetQPS != 50 {
			t.Errorf("scenario %s target_qps = %v, want 50", sc.Name, sc.TargetQPS)
		}
	}
}

// TestLoadgenBadFlags: unknown corpus kinds and stray arguments fail
// cleanly.
func TestLoadgenBadFlags(t *testing.T) {
	if code, _, stderr := runEpre(t, "loadgen", "-corpus", "bogus", "-out", ""); code == 0 {
		t.Errorf("unknown corpus accepted: %s", stderr)
	}
	if code, _, _ := runEpre(t, "loadgen", "stray"); code == 0 {
		t.Error("stray argument accepted")
	}
}
