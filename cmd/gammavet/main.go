// Command gammavet is the suite's custom determinism & concurrency
// linter. It type-checks every package in the module with the standard
// library's go/ast, go/parser and go/types and enforces the invariants
// behind the golden-harness guarantee:
//
//	maporder         — no map iteration feeding slices/writers/channels unsorted
//	walltime         — no wall-clock reads outside the injectable sched.Clock,
//	                   direct or transitive from exported serving entry points
//	ambientrand      — no randomness that isn't keyed off the study seed
//	sharedmap        — no unguarded shared-map writes from pool-submitted work
//	hotalloc         — no allocating constructs reachable from //gamma:hotpath
//	                   roots (escape hatch: a reasoned //gamma:coldpath)
//	atomicdiscipline — no by-value traffic in atomic/lock-bearing types
//	directive        — no malformed //gammavet:ignore / //gamma: comments
//
// The interprocedural checks run over a module-wide static call graph
// (direct calls, interface calls devirtualized through the module's
// declared types, function values tracked one hop); -graph dumps it and
// -chains expands each finding's root-to-leaf call chain.
//
// Usage:
//
//	go run ./cmd/gammavet ./...
//	go run ./cmd/gammavet -json ./internal/pipeline/...
//	go run ./cmd/gammavet -chains ./internal/serve
//	go run ./cmd/gammavet -graph ./internal/serve
//
// Findings are suppressible with a reasoned directive on or above the
// offending line:
//
//	//gammavet:ignore maporder verdict is order-invariant: values all identical
//
// gammavet exits 2 on usage/load errors, 1 when any error-severity
// diagnostic remains, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/gamma-suite/gamma/internal/lint"
)

func main() {
	var (
		dir        = flag.String("C", ".", "module root (directory containing go.mod)")
		jsonOut    = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		checkNames = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		listChecks = flag.Bool("list", false, "list available checks and exit")
		graphDump  = flag.Bool("graph", false, "dump the static call graph for the matched packages and exit")
		chains     = flag.Bool("chains", false, "expand each interprocedural finding's call chain (text output)")
	)
	flag.Parse()

	if *graphDump {
		g, pkgs, err := lint.LoadGraph(*dir, flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "gammavet:", err)
			os.Exit(2)
		}
		g.Dump(os.Stdout, pkgs)
		return
	}

	checks := lint.Checks()
	if *listChecks {
		for _, c := range checks {
			fmt.Printf("%-12s %s\n", c.ID, c.Doc)
		}
		return
	}
	if *checkNames != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*checkNames, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var subset []lint.Check
		for _, c := range checks {
			if want[c.ID] {
				subset = append(subset, c)
				delete(want, c.ID)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for name := range want {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "gammavet: unknown check(s): %s (try -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		checks = subset
	}

	diags, err := lint.Run(*dir, flag.Args(), checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gammavet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "gammavet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *chains {
				for _, fr := range d.Chain {
					fmt.Printf("\t%s (%s:%d)\n", fr.Func, fr.File, fr.Line)
				}
			}
		}
	}

	failing := 0
	for _, d := range diags {
		if d.Severity == lint.Error {
			failing++
		}
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "gammavet: %d finding(s)\n", failing)
		os.Exit(1)
	}
}
