// Command ilocfilter runs a single optimization pass as a Unix filter:
// it reads ILOC text on stdin, applies the named pass to every
// function, and writes ILOC text on stdout.  This mirrors the paper's
// optimizer structure (§4): "each pass is a Unix filter that consumes
// and produces ILOC ... its flexibility makes it ideal for
// experimentation".  Passes compose with ordinary shell pipelines:
//
//	epre compile prog.mf | ilocfilter reassoc | ilocfilter gvn |
//	    ilocfilter normalize | ilocfilter pre | ilocfilter sccp |
//	    ilocfilter peephole | ilocfilter dce | ilocfilter coalesce |
//	    ilocfilter emptyblocks
//
// Every filter re-verifies its output before printing and exits
// non-zero (naming the pass) if the pass broke the program, so a buggy
// filter cannot silently feed the next pipe stage.
//
// "ilocfilter check" is the assertion stage: it transforms nothing,
// runs the semantic analyzers (structural verification plus the
// dataflow/SSA def-use verifier) on its input, echoes the program
// unchanged, and exits non-zero if any error diagnostic fires:
//
//	... | ilocfilter pre | ilocfilter check | ilocfilter dce | ...
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilocfilter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gvnName := fs.String("gvn", "", "GVN backend selecting the pass the generic \"gvn\" stage runs (awz|precise; default awz)")
	preName := fs.String("pre", "", "PRE backend selecting the pass the generic \"pre\" stage runs (drechsler|lospre; default drechsler)")
	usage := func() {
		fmt.Fprintln(stderr, "usage: ilocfilter [-gvn awz|precise] [-pre drechsler|lospre] PASS   (reads ILOC on stdin, writes ILOC on stdout)")
		fmt.Fprintln(stderr, "passes:")
		for _, p := range core.AllPasses() {
			fmt.Fprintf(stderr, "  %s\n", p.Name)
		}
	}
	fs.Usage = usage
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	gvnBackend, err := core.ParseGVNBackend(*gvnName)
	if err != nil {
		fmt.Fprintln(stderr, "ilocfilter:", err)
		return 2
	}
	preBackend, err := core.ParsePREBackend(*preName)
	if err != nil {
		fmt.Fprintln(stderr, "ilocfilter:", err)
		return 2
	}
	name := fs.Arg(0)
	// The generic stage names resolve through the backend flags, so
	// pipelines can switch backends without renaming the stage.
	switch name {
	case "gvn":
		name = gvnBackend.PassName()
	case "pre":
		name = preBackend.PassName()
	}
	pass, err := core.PassByName(name)
	if err != nil {
		fmt.Fprintln(stderr, "ilocfilter:", err)
		return 2
	}
	text, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "ilocfilter:", err)
		return 1
	}
	// Input is usually ILOC (the pipe case), but a front-end source —
	// Mini-Fortran or PL/0 — works directly, letting a pipeline start
	// at `ilocfilter reassoc < prog.pl0` without a compile stage.
	prog, _, err := lang.Compile(string(text), "")
	if err != nil {
		fmt.Fprintln(stderr, "ilocfilter: input:", err)
		return 1
	}
	if name == "check" {
		// The assertion stage: analyze, echo unchanged, fail on errors.
		diags := check.Program(prog, check.Options{})
		check.Report(stderr, diags)
		prog.Fprint(stdout)
		if len(check.Errors(diags)) > 0 {
			return 1
		}
		return 0
	}
	for _, f := range prog.Funcs {
		pass.Run(&core.PassContext{
			Ctx:      context.Background(),
			Func:     f,
			Analyses: analysis.NewCache(f),
		})
	}
	if err := ir.VerifyProgram(prog); err != nil {
		fmt.Fprintf(stderr, "ilocfilter: after %s: %v\n", name, err)
		return 1
	}
	prog.Fprint(stdout)
	return 0
}
