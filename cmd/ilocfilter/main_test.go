package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minift"
)

const filterSrc = `
func main(n: int): int {
    var s: int = 0
    for i = 1 to n {
        s = s + i * n
    }
    return s
}
`

func runFilter(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestHelp(t *testing.T) {
	code, _, stderr := runFilter(t, []string{"--help"}, "")
	if code != 2 {
		t.Errorf("help exit = %d, want 2", code)
	}
	for _, want := range []string{"usage: ilocfilter [-pre drechsler|lospre] PASS", "pre", "gvn", "check"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("help output missing %q:\n%s", want, stderr)
		}
	}
}

func TestUnknownPass(t *testing.T) {
	code, _, stderr := runFilter(t, []string{"no-such-pass"}, "")
	if code != 2 || !strings.Contains(stderr, "unknown pass") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestBadInputRejected(t *testing.T) {
	code, _, stderr := runFilter(t, []string{"dce"}, "this is not iloc\n")
	if code != 1 || !strings.Contains(stderr, "ilocfilter:") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

// TestPipelineRoundTrip pushes a compiled program through the full
// distribution-level pass pipeline one filter at a time — exactly the
// shell-pipe usage — and checks the final program still computes the
// same result.
func TestPipelineRoundTrip(t *testing.T) {
	prog, err := minift.Compile(filterSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(prog)
	want, err := m.Call("main", interp.IntVal(9))
	if err != nil {
		t.Fatal(err)
	}

	text := prog.String()
	pipeline := []string{"reassoc-dist", "gvn", "normalize", "pre", "check",
		"sccp", "peephole", "dce", "coalesce", "emptyblocks", "dce", "check"}
	for _, pass := range pipeline {
		code, out, stderr := runFilter(t, []string{pass}, text)
		if code != 0 {
			t.Fatalf("filter %s failed (%d): %s", pass, code, stderr)
		}
		text = out
	}
	final, err := ir.ParseProgramString(text)
	if err != nil {
		t.Fatalf("pipeline output does not parse: %v", err)
	}
	m2 := interp.NewMachine(final)
	got, err := m2.Call("main", interp.IntVal(9))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pipeline changed semantics: %s vs %s", got, want)
	}
	if m2.Steps > m.Steps {
		t.Errorf("pipeline lengthened execution: %d -> %d", m.Steps, m2.Steps)
	}
}

// TestCheckStageFails: the check stage exits non-zero on a program
// with an undefined register use, and still echoes the program so the
// pipe shape is preserved.
func TestCheckStageFails(t *testing.T) {
	const bad = `
program globalsize=0

func f(r1) {
b0:
    enter(r1)
    add r1, r9 => r2
    ret r2
}
`
	code, stdout, stderr := runFilter(t, []string{"check"}, bad)
	if code != 1 {
		t.Errorf("check on bad program: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "undefined register r9") || !strings.Contains(stderr, "[defuse]") {
		t.Errorf("missing diagnostic on stderr: %q", stderr)
	}
	if !strings.Contains(stdout, "add r1, r9 => r2") {
		t.Errorf("check should echo the program, got: %q", stdout)
	}
}

func TestCheckStagePassesCleanProgram(t *testing.T) {
	prog, err := minift.Compile(filterSrc)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runFilter(t, []string{"check"}, prog.String())
	if code != 0 || stderr != "" {
		t.Errorf("check on clean program: exit %d, stderr %q", code, stderr)
	}
	if stdout != prog.String() {
		t.Errorf("check must echo its input unchanged")
	}
}

// TestPREBackendFlag: the generic "pre" stage resolves through -pre to
// each backend's pass, every backend's output reparses and computes the
// same result, and a bogus backend is a usage error.
func TestPREBackendFlag(t *testing.T) {
	prog, err := minift.Compile(filterSrc)
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	prog.Fprint(&src)
	want := runMain(t, prog)

	for _, backend := range []string{"drechsler", "lospre"} {
		code, stdout, stderr := runFilter(t, []string{"-pre", backend, "pre"}, src.String())
		if code != 0 {
			t.Fatalf("-pre %s pre exited %d: %s", backend, code, stderr)
		}
		out, err := ir.ParseProgramString(stdout)
		if err != nil {
			t.Fatalf("-pre %s output unparsable: %v", backend, err)
		}
		if got := runMain(t, out); got != want {
			t.Errorf("-pre %s: main() = %s, want %s", backend, got, want)
		}
	}
	// The default resolves to the paper's pass: identical bytes to an
	// explicit drechsler run.
	_, defOut, _ := runFilter(t, []string{"pre"}, src.String())
	_, dreOut, _ := runFilter(t, []string{"-pre", "drechsler", "pre"}, src.String())
	if defOut != dreOut {
		t.Error("default pre stage differs from explicit -pre drechsler")
	}
	if code, _, stderr := runFilter(t, []string{"-pre", "bogus", "pre"}, src.String()); code != 2 ||
		!strings.Contains(stderr, "unknown PRE backend") {
		t.Errorf("bogus backend accepted (exit %d): %s", code, stderr)
	}
}

func runMain(t *testing.T, prog *ir.Program) interp.Value {
	t.Helper()
	m := interp.NewMachine(prog)
	v, err := m.Call("main", interp.IntVal(7))
	if err != nil {
		t.Fatal(err)
	}
	return v
}
