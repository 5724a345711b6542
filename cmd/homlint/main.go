// Command homlint runs the repository's whole-module static-analysis
// engine (internal/analysis) — determinism (global math/rand, wall-clock
// reads, pid seeds, map order), float comparison, span ends, trace
// contexts, sleep loops, lock ordering, hot-path allocations, snapshot
// compatibility, and dropped errors — and exits 1 when any finding
// survives its suppression directives, so it can gate CI:
//
//	go run ./cmd/homlint ./...
//
// Usage:
//
//	homlint [flags] [packages ...]
//
// A package argument is a directory (analyzed alone), or a directory
// suffixed with /... to load as a whole module tree with full
// cross-package type information, the call graph, and the module
// analyzers. With no arguments, ./... is assumed. Findings go to stdout,
// one per line; a justified exception is a
// `//homlint:allow <analyzer> -- <reason>` directive next to its code.
//
// Flags:
//
//	-list       list analyzers and exit
//	-enable a,b restrict the suite to the named analyzers
//	-fix        apply mechanical fixes (errdrop `_ =`, fingerprint refresh)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"highorder/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("homlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	enable := fs.String("enable", "", "comma-separated analyzer names to run (default: all)")
	fix := fs.Bool("fix", false, "apply mechanical fixes")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	analyzers := analysis.All()
	if *enable != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*enable, ","))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}

	var diags []analysis.Diagnostic
	for _, t := range targets {
		loader := analysis.NewLoader()
		var (
			prog *analysis.Program
			err  error
		)
		if dir, ok := strings.CutSuffix(t, "/..."); ok {
			if dir == "" {
				dir = "."
			}
			prog, err = loader.LoadModule(dir)
		} else {
			prog, err = loader.LoadDir(t)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		diags = append(diags, prog.Run(analyzers)...)
	}

	if *fix {
		applied, rest, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if applied > 0 {
			fmt.Fprintf(stderr, "homlint: applied %d fix(es)\n", applied)
		}
		diags = rest
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "homlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
