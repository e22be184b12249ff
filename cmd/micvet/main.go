// Command micvet runs the repository's custom static-analysis suite: three
// analyzers, each of which caught a real bug here — wallclock (direct clock
// reads in the kernels and the serving layers), goroleak (goroutines with no
// owner) and resclose (resources that never reach Close/Stop). See
// internal/analysis and DESIGN.md §6.
//
// Usage:
//
//	micvet [packages]
//
// Packages default to ./... relative to the current directory. The exit
// status is 1 when any diagnostic is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"micgraph/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: micvet [packages]\n")
	}
	flag.Parse()

	pkgs, err := analysis.LoadModule(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "micvet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "micvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
