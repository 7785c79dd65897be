// Command lsmlint runs the engine's repo-specific static analyzers
// (internal/lint) over the packages matched by its arguments.
//
// Usage:
//
//	lsmlint [-list] [-only name,name] [patterns...]
//
// With no patterns it analyzes ./... relative to the current directory.
// Findings print one per line in file:line:col form.
// Exit status: 0 clean, 1 findings, 2 load or usage failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"leveldbpp/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "lsmlint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsmlint: %v\n", err)
		os.Exit(2)
	}

	diags := lint.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lsmlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
