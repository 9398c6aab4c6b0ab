// Command alewife-lint runs the simulator's static-analysis suite
// (internal/analysis): determinism, pool discipline, allocation-free hot
// paths, and nil-receiver guards.
//
// Usage: `alewife-lint [-dir d] [packages...]` loads the packages (default
// ./...) via `go list -export`, runs every analyzer, and prints findings.
// Exit 0 clean, 1 findings, 2 usage or load errors.
//
// There is no baseline file and no way to ignore a finding wholesale: a
// legitimate exception carries an //alewife:allow comment with a reason,
// in the source it excuses.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"alewife/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("alewife-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: alewife-lint [-dir d] [packages...]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
		return 2
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fmt.Fprintf(stderr, "alewife-lint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "alewife-lint: %d finding(s)\n", found)
		return 1
	}
	return 0
}
