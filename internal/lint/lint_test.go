package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

// lintSrc parses src as a single file of the given module-relative
// package and returns the findings.
func lintSrc(t *testing.T, pkgRel, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return File(fset, f, pkgRel)
}

func wantChecks(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	var got []string
	for _, d := range diags {
		got = append(got, d.Check)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings %v, want %v", len(got), diags, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d: check %q, want %q (%s)", i, got[i], want[i], diags[i])
		}
	}
}

func TestCFGWriteFlagged(t *testing.T) {
	src := `package dce
func f(b *Block) {
	b.Succs = nil
	b.Preds = append(b.Preds, b)
	b.Succs[0] = b
	b.Instrs = nil // not an edge list
}`
	wantChecks(t, lintSrc(t, "internal/dce", src), "cfgwrite", "cfgwrite", "cfgwrite")
}

func TestCFGWriteAllowedInOwners(t *testing.T) {
	src := `package ir
func f(b *Block) { b.Succs = nil }`
	wantChecks(t, lintSrc(t, "internal/ir", src))
	src2 := `package cfg
func f(b *Block) { b.Preds = nil }`
	wantChecks(t, lintSrc(t, "internal/cfg", src2))
}

func TestCFGWriteSuppressedWithReason(t *testing.T) {
	src := `package progen
func f(b *Block) {
	b.Succs = nil //lint:ignore cfgwrite fresh block in a generator
}`
	wantChecks(t, lintSrc(t, "internal/progen", src))

	// A directive without a reason does not suppress.
	src2 := `package progen
func f(b *Block) {
	b.Succs = nil //lint:ignore cfgwrite
}`
	wantChecks(t, lintSrc(t, "internal/progen", src2), "cfgwrite")
}

func TestTimeNowFlaggedInPassBodies(t *testing.T) {
	src := `package gvn
import "time"
func f() time.Time { return time.Now() }`
	wantChecks(t, lintSrc(t, "internal/gvn", src), "timenow")

	// The pass manager (internal/core) owns timing instrumentation.
	src2 := `package core
import "time"
func f() time.Time { return time.Now() }`
	wantChecks(t, lintSrc(t, "internal/core", src2))
}

func TestMapOrderAppendFlagged(t *testing.T) {
	src := `package pre
func f(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}`
	wantChecks(t, lintSrc(t, "internal/pre", src), "maporder")
}

func TestMapOrderSortedAppendAllowed(t *testing.T) {
	src := `package pre
import "sort"
func f(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}`
	wantChecks(t, lintSrc(t, "internal/pre", src))
}

func TestMapOrderPrintFlagged(t *testing.T) {
	src := `package sccp
import "fmt"
func f() {
	m := make(map[string]int)
	for k := range m {
		fmt.Println(k)
	}
}`
	wantChecks(t, lintSrc(t, "internal/sccp", src), "maporder")
}

func TestMapOrderWriteFlagged(t *testing.T) {
	src := `package sccp
import "strings"
func f(w *strings.Builder) {
	m := map[string]int{}
	for k := range m {
		w.WriteString(k)
	}
}`
	wantChecks(t, lintSrc(t, "internal/sccp", src), "maporder")
}

func TestMapOrderCommutativeBodyAllowed(t *testing.T) {
	// Pure map-to-map work and counting are order-independent.
	src := `package gvn
func f(m map[int]int) int {
	n := 0
	other := map[int]bool{}
	for k, v := range m {
		n += v
		other[k] = true
	}
	return n
}`
	wantChecks(t, lintSrc(t, "internal/gvn", src))
}

func TestMapOrderSliceRangeNotFlagged(t *testing.T) {
	src := `package gvn
func f(s []int) []int {
	var out []int
	for _, v := range s {
		out = append(out, v)
	}
	return out
}`
	wantChecks(t, lintSrc(t, "internal/gvn", src))
}

// TestPassPackageDenylist pins the coverage inversion: internal/
// packages are pass packages unless explicitly exempted, so a newly
// added backend package is linted without registration, while cmd/
// binaries and the exempted harness packages stay out of the
// determinism checks (the cfgwrite check applies to them regardless).
func TestPassPackageDenylist(t *testing.T) {
	for pkg, want := range map[string]bool{
		"internal/lospre":  true,
		"internal/pre":     true,
		"internal/newpass": true, // hypothetical future backend: covered by default
		"internal/core":    false,
		"internal/suite":   false,
		"internal/lint":    false,
		"cmd/epre":         false,
		"cmd/ilocfilter":   false,
	} {
		if got := isPassPackage(pkg); got != want {
			t.Errorf("isPassPackage(%q) = %v, want %v", pkg, got, want)
		}
	}

	// The determinism checks really fire in the newly covered packages…
	src := `package lospre
import "time"
func f() time.Time { return time.Now() }`
	wantChecks(t, lintSrc(t, "internal/lospre", src), "timenow")

	// …and really stay off in cmd/ even for map-order sinks.
	src2 := `package main
import "fmt"
func f(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}`
	wantChecks(t, lintSrc(t, "cmd/epre", src2))
}

// TestMapOrderInsertionPointMap is the fixture the alternate PRE
// backend motivated: a per-block insertion-point map drained into the
// instruction stream without sorting would make the emitted order
// depend on map iteration.  The unsorted drain must
// be flagged; the canonical collect-keys-sort-iterate drain must pass.
func TestMapOrderInsertionPointMap(t *testing.T) {
	src := `package lospre
func drain(insertAt map[*Block][]*Instr) []*Instr {
	var out []*Instr
	for _, instrs := range insertAt {
		out = append(out, instrs...)
	}
	return out
}`
	wantChecks(t, lintSrc(t, "internal/lospre", src), "maporder")

	src2 := `package lospre
import "sort"
func drain(insertAt map[int][]*Instr) []*Instr {
	keys := make([]int, 0, len(insertAt))
	for b := range insertAt {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var out []*Instr
	for _, b := range keys {
		out = append(out, insertAt[b]...)
	}
	return out
}`
	wantChecks(t, lintSrc(t, "internal/lospre", src2))
}

// TestIRConstructFlagged pins the arena invariant the refactor
// introduced: a bare ir.Instr literal has no InstrID, so passes must
// allocate through a Func.  Both literal spellings and new() are
// caught.
func TestIRConstructFlagged(t *testing.T) {
	src := `package peephole
import "repro/internal/ir"
func f() *ir.Instr {
	in := &ir.Instr{Op: ir.OpAdd}
	_ = ir.Instr{}
	return in
}`
	wantChecks(t, lintSrc(t, "internal/peephole", src), "irconstruct", "irconstruct")

	src2 := `package peephole
import "repro/internal/ir"
func f() *ir.Instr { return new(ir.Instr) }`
	wantChecks(t, lintSrc(t, "internal/peephole", src2), "irconstruct")
}

func TestIRConstructAliasedImportFlagged(t *testing.T) {
	src := `package gvn
import myir "repro/internal/ir"
func f() *myir.Instr { return &myir.Instr{} }`
	wantChecks(t, lintSrc(t, "internal/gvn", src), "irconstruct")
}

func TestIRConstructAllowedInIR(t *testing.T) {
	// The ir package itself allocates arena chunks and the zero-value
	// scaffolding; the unqualified spelling there is the implementation.
	src := `package ir
func f() *Instr { return &Instr{} }`
	wantChecks(t, lintSrc(t, "internal/ir", src))
}

func TestIRConstructUnrelatedInstrAllowed(t *testing.T) {
	// A different package exporting an Instr type is not ours; the
	// check resolves the selector through the actual import path.
	src := `package interp
import "some/other/asm"
func f() *asm.Instr { return &asm.Instr{} }`
	wantChecks(t, lintSrc(t, "internal/interp", src))
}

func TestIRConstructAllocatorCallsAllowed(t *testing.T) {
	src := `package pre
import "repro/internal/ir"
func f(fn *ir.Func) ir.InstrID {
	in := fn.NewInstr(ir.OpAdd, 1, 2, 3)
	return in.ID()
}`
	wantChecks(t, lintSrc(t, "internal/pre", src))
}

func TestIRConstructSuppressedWithReason(t *testing.T) {
	src := `package difftest
import "repro/internal/ir"
func f() {
	_ = ir.Instr{} //lint:ignore irconstruct detached scratch value, never enters a block
}`
	wantChecks(t, lintSrc(t, "internal/difftest", src))
}

// TestRepoClean is the gate that wires the linter into the test
// suite: the repository itself must lint clean.  This is the same
// walk cmd/eprelint and `make lint` perform.
func TestRepoClean(t *testing.T) {
	diags, err := Tree("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
