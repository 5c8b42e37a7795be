// Command tcqlint is the repo's invariant linter: a multichecker of four
// repo-specific analyzers (clockcheck, ownercheck, alloccheck, lockcheck)
// enforcing the engine's determinism, ownership, hot-path allocation and
// lock-order invariants that go vet and the tests cannot see. It type-checks the named packages
// (tests included) from source — dependencies come from build-cache export
// data, so it runs hermetically — applies every analyzer, and exits
// non-zero when findings remain.
//
// Usage:
//
//	go run ./cmd/tcqlint ./...
//	go run ./cmd/tcqlint -c clockcheck,lockcheck ./internal/core/
//
// Suppress an individual finding with a `//lint:ignore <analyzer> reason`
// comment on, or on the line above, the flagged line (see TESTING.md).
// Audit the suppressions with -ignores: every directive is listed with its
// location, and directives that no longer suppress anything are marked
// STALE and fail the run, so fixed code sheds its excuses.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"telegraphcq/internal/lint"
	"telegraphcq/internal/lint/checks"
)

func main() {
	var (
		only    = flag.String("c", "", "comma-separated subset of analyzers to run (default all)")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		ignores = flag.Bool("ignores", false, "audit //lint:ignore directives: list each with its location and flag stale ones (directives that no longer suppress anything)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tcqlint [-c checks] [-list] [-ignores] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := checks.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range suite {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "tcqlint: unknown analyzer %q (try -list)\n", name)
			os.Exit(2)
		}
		suite = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcqlint: %v\n", err)
		os.Exit(2)
	}
	diags, audits, err := lint.RunWithAudit(dir, patterns, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcqlint: %v\n", err)
		os.Exit(2)
	}
	if *ignores {
		// Audit mode: the run's findings still print (a suppression audit
		// must not hide live findings), followed by the directive ledger.
		// A directive is stale when the full suite ran and it suppressed
		// nothing — the code it excused has been fixed or deleted, so the
		// excuse should be deleted too. With -c only a subset runs, so
		// unused directives for unselected analyzers are reported as
		// unexercised rather than stale.
		stale := 0
		for _, a := range audits {
			state := "used"
			if !a.Used {
				if *only == "" {
					state = "STALE"
					stale++
				} else {
					state = "unexercised"
				}
			}
			name := a.Pos.Filename
			// Repo-relative paths keep the committed ledger machine-independent.
			if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			fmt.Printf("%s:%d: [%s] %s\n", name, a.Pos.Line, state, a.Text)
		}
		fmt.Fprintf(os.Stderr, "tcqlint: %d ignore directive(s), %d stale\n", len(audits), stale)
		for _, d := range diags {
			fmt.Println(d)
		}
		if stale > 0 || len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "tcqlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
