package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
)

func runEpre(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const mainSrc = `
func main(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * n
    }
    return s
}
`

func TestHelpGolden(t *testing.T) {
	code, stdout, _ := runEpre(t, "--help")
	if code != 0 {
		t.Errorf("help exit = %d, want 0", code)
	}
	for _, want := range []string{
		"epre compile", "epre opt", "epre run", "epre lint",
		"epre table1", "epre levels", "-discipline", "-strict-ssa",
		"epre serve", "epre loadgen", "-parallel",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("help missing %q:\n%s", want, stdout)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, stderr := runEpre(t, "frobnicate")
	if code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestLevelsListsCheckPass(t *testing.T) {
	code, stdout, _ := runEpre(t, "levels")
	if code != 0 {
		t.Fatalf("levels exit = %d", code)
	}
	for _, want := range []string{"baseline", "distribution", "check", "pre", "gvn"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("levels missing %q:\n%s", want, stdout)
		}
	}
}

// TestLevelsPassInventorySorted: the individual-pass listing prints in
// explicitly sorted order, so the output is canonical.
func TestLevelsPassInventorySorted(t *testing.T) {
	code, stdout, _ := runEpre(t, "levels")
	if code != 0 {
		t.Fatalf("levels exit = %d", code)
	}
	_, inventory, found := strings.Cut(stdout, "individual passes")
	if !found {
		t.Fatalf("no pass inventory in output:\n%s", stdout)
	}
	var names []string
	for _, line := range strings.Split(inventory, "\n")[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			if len(names) > 0 {
				break // the inventory ends at the first blank line
			}
			continue
		}
		names = append(names, line)
	}
	if len(names) < 10 {
		t.Fatalf("suspiciously short inventory: %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("pass inventory not sorted: %v", names)
	}
	// The backend matrix follows the inventory, naming every slot.
	for _, want := range []string{"gvn:", "pre:", "drechsler (pass pre)", "lospre (pass pre-lospre)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("levels output missing %q:\n%s", want, stdout)
		}
	}
}

// TestTable1ParallelFlag: table1 -parallel renders byte-identically to
// the serial run.
func TestTable1ParallelFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	code, serial, stderr := runEpre(t, "table1")
	if code != 0 {
		t.Fatalf("table1: %s", stderr)
	}
	code, par, stderr := runEpre(t, "table1", "-parallel", "8")
	if code != 0 {
		t.Fatalf("table1 -parallel: %s", stderr)
	}
	if serial != par {
		t.Errorf("parallel table1 differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

// TestProfileFlags: -cpuprofile/-memprofile write non-empty pprof
// files around a measured subcommand.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := runEpre(t, "table1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("table1 with profiles failed: %s", stderr)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
}

// TestCompileFilterRunRoundTrip: compile to a .iloc file, optimize it
// with opt, and run the result — the full CLI round trip.
func TestCompileFilterRunRoundTrip(t *testing.T) {
	src := writeFile(t, "prog.mf", mainSrc)
	iloc := filepath.Join(t.TempDir(), "prog.iloc")
	if code, _, stderr := runEpre(t, "compile", "-o", iloc, src); code != 0 {
		t.Fatalf("compile failed: %s", stderr)
	}
	opt := filepath.Join(t.TempDir(), "opt.iloc")
	if code, _, stderr := runEpre(t, "opt", "-level", "dist", "-o", opt, iloc); code != 0 {
		t.Fatalf("opt failed: %s", stderr)
	}
	code, stdout, stderr := runEpre(t, "run", "-fn", "main", "-args", "9", opt)
	if code != 0 {
		t.Fatalf("run failed: %s", stderr)
	}
	// sum_{i=1..9} 9i = 9*45 = 405
	if !strings.Contains(stdout, "result      = 405") {
		t.Errorf("wrong result:\n%s", stdout)
	}
	if !strings.Contains(stdout, "dynamic ops = ") || !strings.Contains(stdout, "static ops  = ") {
		t.Errorf("missing count lines:\n%s", stdout)
	}
}

func TestLintCleanProgram(t *testing.T) {
	src := writeFile(t, "prog.mf", mainSrc)
	code, stdout, stderr := runEpre(t, "lint", src)
	if code != 0 || stdout != "" || stderr != "" {
		t.Errorf("lint on clean program: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

// TestLintCheckedLevel: lint -level runs the whole pipeline in checked
// mode (per-pass defuse + translation validation) and stays quiet on
// correct code.
func TestLintCheckedLevel(t *testing.T) {
	src := writeFile(t, "prog.mf", mainSrc)
	for _, level := range []string{"baseline", "dist"} {
		code, stdout, stderr := runEpre(t, "lint", "-level", level, src)
		if code != 0 || stdout != "" {
			t.Errorf("lint -level %s: code=%d stdout=%q stderr=%q", level, code, stdout, stderr)
		}
	}
}

func TestLintFlagsUndefinedRegister(t *testing.T) {
	iloc := writeFile(t, "bad.iloc", `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    add r1, r9 => r2
    ret r2
}
`)
	code, stdout, _ := runEpre(t, "lint", iloc)
	if code != 1 {
		t.Errorf("lint exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "undefined register r9") || !strings.Contains(stdout, "[defuse]") {
		t.Errorf("missing diagnostic:\n%s", stdout)
	}
	if !strings.Contains(stdout, "epre lint: 1 error(s), 0 warning(s)") {
		t.Errorf("missing summary line:\n%s", stdout)
	}
}

// TestLintDiscipline: the naming-discipline lint flags a cross-block
// expression name on raw code and is satisfied once normalize ran.
func TestLintDiscipline(t *testing.T) {
	iloc := writeFile(t, "expr.iloc", `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    add r1, r1 => r2
    jump -> b1
b1:
    ret r2
}
`)
	code, stdout, _ := runEpre(t, "lint", "-discipline", iloc)
	if code != 1 || !strings.Contains(stdout, "[discipline]") {
		t.Errorf("discipline violation not flagged: code=%d\n%s", code, stdout)
	}
	code, stdout, _ = runEpre(t, "lint", "-discipline", "-passes", "normalize", iloc)
	if code != 0 {
		t.Errorf("normalize should establish the discipline: code=%d\n%s", code, stdout)
	}
}

func TestLintBadLevel(t *testing.T) {
	src := writeFile(t, "prog.mf", mainSrc)
	code, _, stderr := runEpre(t, "lint", "-level", "bogus", src)
	if code != 2 || !strings.Contains(stderr, "unknown optimization level") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

// TestRunHonorsCheckEnv: EPRE_CHECK=1 routes optimization through the
// checked pipeline; correct code still runs and miscompiles would fail
// (exercised end to end in internal/core).
func TestRunHonorsCheckEnv(t *testing.T) {
	t.Setenv("EPRE_CHECK", "1")
	src := writeFile(t, "prog.mf", mainSrc)
	code, stdout, stderr := runEpre(t, "run", "-level", "reassoc", "-fn", "main", "-args", "9", src)
	if code != 0 {
		t.Fatalf("checked run failed: %s", stderr)
	}
	if !strings.Contains(stdout, "result      = 405") {
		t.Errorf("wrong result:\n%s", stdout)
	}
}

func TestFuzzClean(t *testing.T) {
	code, stdout, stderr := runEpre(t, "fuzz", "-seed", "1", "-n", "10", "-workers", "2", "-stats")
	if code != 0 {
		t.Fatalf("fuzz on a clean pipeline exited %d: %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "10 programs, 0 failures") {
		t.Errorf("missing summary line: %s", stdout)
	}
	if !strings.Contains(stdout, "programs_per_second") {
		t.Errorf("-stats did not print metrics: %s", stdout)
	}
}

func TestFuzzLevelFlag(t *testing.T) {
	code, stdout, stderr := runEpre(t, "fuzz", "-seed", "1", "-n", "5", "-level", "partial")
	if code != 0 {
		t.Fatalf("fuzz -level partial exited %d: %s%s", code, stdout, stderr)
	}
	if code, _, stderr := runEpre(t, "fuzz", "-level", "bogus"); code == 0 || !strings.Contains(stderr, "unknown optimization level") {
		t.Errorf("bogus level accepted (exit %d): %s", code, stderr)
	}
	if code, _, _ := runEpre(t, "fuzz", "stray-arg"); code == 0 {
		t.Error("stray positional argument accepted")
	}
}

func TestFuzzArtifactDir(t *testing.T) {
	// A clean pipeline writes no artifacts; the directory flag alone
	// must not create clutter or fail.
	dir := filepath.Join(t.TempDir(), "artifacts")
	code, _, stderr := runEpre(t, "fuzz", "-seed", "1", "-n", "3", "-artifact-dir", dir)
	if code != 0 {
		t.Fatalf("fuzz with -artifact-dir exited %d: %s", code, stderr)
	}
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		t.Errorf("clean run wrote %d artifacts", len(entries))
	}
}

func TestFuzzUsageListed(t *testing.T) {
	code, stdout, _ := runEpre(t, "help")
	if code != 0 {
		t.Fatalf("help exited %d", code)
	}
	if !strings.Contains(stdout, "epre fuzz") {
		t.Error("usage text does not mention the fuzz command")
	}
}

// TestFuzzMiscompileExit drives the CLI's failure path end to end: a
// deliberately sabotaged pipeline (via the test-only EPRE_FUZZ_SABOTAGE
// hook) must produce a nonzero exit, FAIL lines with shrink counts, and
// a reparsable artifact on disk.
func TestFuzzMiscompileExit(t *testing.T) {
	t.Setenv("EPRE_FUZZ_SABOTAGE", "partial")
	dir := filepath.Join(t.TempDir(), "artifacts")
	code, stdout, stderr := runEpre(t, "fuzz",
		"-seed", "1", "-n", "3", "-level", "partial", "-artifact-dir", dir)
	if code == 0 {
		t.Fatalf("sabotaged fuzz run exited 0:\n%s", stdout)
	}
	if !strings.Contains(stdout, "FAIL: miscompile at partial") {
		t.Errorf("missing FAIL line:\n%s", stdout)
	}
	if !strings.Contains(stdout, "shrunk") {
		t.Errorf("failures were not shrunk:\n%s", stdout)
	}
	if !strings.Contains(stderr, "failure(s)") {
		t.Errorf("stderr missing failure summary: %s", stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no artifacts written (err %v)", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.ParseProgramString(string(data)); err != nil {
		t.Errorf("artifact %s does not reparse: %v", entries[0].Name(), err)
	}
}

func TestFuzzGVNDiffFlag(t *testing.T) {
	code, stdout, stderr := runEpre(t, "fuzz", "-seed", "1", "-n", "8", "-workers", "2", "-gvn-diff")
	if code != 0 {
		t.Fatalf("fuzz -gvn-diff exited %d: %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "8 programs, 0 failures") {
		t.Errorf("missing summary line: %s", stdout)
	}
	// The sabotage hook binds a custom pipeline, which is incompatible
	// with backend fan-out; the CLI must refuse the combination.
	t.Setenv("EPRE_FUZZ_SABOTAGE", "partial")
	if code, _, stderr := runEpre(t, "fuzz", "-n", "1", "-gvn-diff"); code == 0 ||
		!strings.Contains(stderr, "cannot be combined") {
		t.Errorf("sabotage + -gvn-diff accepted (exit %d): %s", code, stderr)
	}
}

func TestFuzzPREDiffFlag(t *testing.T) {
	code, stdout, stderr := runEpre(t, "fuzz", "-seed", "1", "-n", "8", "-workers", "2", "-pre-diff")
	if code != 0 {
		t.Fatalf("fuzz -pre-diff exited %d: %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "8 programs, 0 failures") {
		t.Errorf("missing summary line: %s", stdout)
	}
	t.Setenv("EPRE_FUZZ_SABOTAGE", "partial")
	if code, _, stderr := runEpre(t, "fuzz", "-n", "1", "-pre-diff"); code == 0 ||
		!strings.Contains(stderr, "cannot be combined") {
		t.Errorf("sabotage + -pre-diff accepted (exit %d): %s", code, stderr)
	}
}

func TestTable1PREFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	code, dre, stderr := runEpre(t, "table1", "-parallel", "8")
	if code != 0 {
		t.Fatalf("table1: %s", stderr)
	}
	code, alt, stderr := runEpre(t, "table1", "-parallel", "8", "-pre", "lospre")
	if code != 0 {
		t.Fatalf("table1 -pre lospre: %s", stderr)
	}
	// Every row is checked against the routine's reference result
	// inside the harness; here pin that the flag threads through and
	// still yields a full table.
	if len(alt) == 0 || strings.Count(alt, "\n") != strings.Count(dre, "\n") {
		t.Errorf("-pre lospre table shape differs:\n%s", alt)
	}
	if code, _, stderr := runEpre(t, "table1", "-pre", "bogus"); code == 0 ||
		!strings.Contains(stderr, "unknown PRE backend") {
		t.Errorf("bogus backend accepted (exit %d): %s", code, stderr)
	}
}

func TestPreCompareCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	code, serial, stderr := runEpre(t, "precompare")
	if code != 0 {
		t.Fatalf("precompare: %s", stderr)
	}
	code, par, stderr := runEpre(t, "precompare", "-parallel", "8")
	if code != 0 {
		t.Fatalf("precompare -parallel: %s", stderr)
	}
	if serial != par {
		t.Errorf("parallel precompare differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
	for _, want := range []string{"routine", "drechsler", "lospre", "tomcatv"} {
		if !strings.Contains(serial, want) {
			t.Errorf("precompare output missing %q:\n%s", want, serial)
		}
	}
	if code, _, _ := runEpre(t, "precompare", "stray"); code == 0 {
		t.Error("stray positional argument accepted")
	}
}

func TestTable1GVNFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	code, awz, stderr := runEpre(t, "table1", "-parallel", "8")
	if code != 0 {
		t.Fatalf("table1: %s", stderr)
	}
	code, precise, stderr := runEpre(t, "table1", "-parallel", "8", "-gvn", "precise")
	if code != 0 {
		t.Fatalf("table1 -gvn precise: %s", stderr)
	}
	// On the current suite the pruned-SSA partitions coincide (see
	// internal/suite gvncompare tests), so the measured tables agree;
	// what this test pins is that the flag parses, threads through, and
	// still produces a full, checked table.
	if len(precise) == 0 || strings.Count(precise, "\n") != strings.Count(awz, "\n") {
		t.Errorf("precise table shape differs:\n%s", precise)
	}
	if code, _, stderr := runEpre(t, "table1", "-gvn", "bogus"); code == 0 ||
		!strings.Contains(stderr, "unknown GVN backend") {
		t.Errorf("bogus backend accepted (exit %d): %s", code, stderr)
	}
}

func TestGVNCompareCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	code, serial, stderr := runEpre(t, "gvncompare")
	if code != 0 {
		t.Fatalf("gvncompare: %s", stderr)
	}
	code, par, stderr := runEpre(t, "gvncompare", "-parallel", "8")
	if code != 0 {
		t.Fatalf("gvncompare -parallel: %s", stderr)
	}
	if serial != par {
		t.Errorf("parallel gvncompare differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
	for _, want := range []string{"routine", "merged", "monotone", "tomcatv"} {
		if !strings.Contains(serial, want) {
			t.Errorf("gvncompare output missing %q:\n%s", want, serial)
		}
	}
	if code, _, _ := runEpre(t, "gvncompare", "stray"); code == 0 {
		t.Error("stray positional argument accepted")
	}
}
