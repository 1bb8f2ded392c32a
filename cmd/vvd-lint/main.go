// vvd-lint runs the repo's invariant analyzers (internal/lint) over Go
// package patterns and exits non-zero on any finding:
//
//	go run ./cmd/vvd-lint ./...
//
// The suite enforces what the parity and conformance tests can only
// observe after the fact: determinism (no wall clock / ambient RNG in
// deterministic packages), maporder (no map-ordered output without a
// sort), floatcmp (no bitwise float equality), closecheck (no discarded
// Close/Flush on writable resources), and depfence (the layering DAG).
//
//	-list         print the analyzers and exit
//	-run regexp   run only analyzers whose name matches
//
// _test.go files and external test packages are always linted.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"vvd/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	run := flag.String("run", "", "run only analyzers whose name matches this regexp")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fatal(fmt.Errorf("bad -run regexp: %w", err))
		}
		var keep []*lint.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			fatal(fmt.Errorf("-run %q matches no analyzer", *run))
		}
		analyzers = keep
	}

	pkgs, err := lint.Load(lint.Config{Patterns: flag.Args()})
	if err != nil {
		fatal(err)
	}
	diags, suppressed, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "vvd-lint: %d packages, %d findings, %d suppressed by directives\n",
		len(pkgs), len(diags), suppressed)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vvd-lint:", err)
	os.Exit(1)
}
