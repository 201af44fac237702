// Command simlint runs DDoSim's determinism and simulation-safety
// static analysis suite (internal/lint) over the module.
//
// Usage:
//
//	go run ./cmd/simlint [-json] [-list] [-analyzer a,b] [-unused-allows] [-inventory out.json] [pattern ...]
//
// Patterns follow go-tool shape: "./..." (the default) lints every
// package in the module, "./internal/netsim/..." a subtree, and
// "./internal/netsim" a single package. -analyzer restricts the run
// to a comma-separated subset of the suite (see -list for names; the
// listing is generated from the registered suite, so it cannot drift
// from the analyzers that actually run). -unused-allows additionally
// reports every //simlint:allow annotation that suppressed nothing or
// names no analyzer of the suite — the stale-suppression audit; it
// requires the full suite, since a subset run cannot judge
// annotations it never exercised. -inventory writes the allocation
// inventory — every declared hot path (//simlint:hotpath or a seeded
// root) and every allocation site reachable from one, classed as
// hotpath, violation, or allowed, with its reachability chain — as
// JSON to the given path ("-" for stdout).
// Diagnostics print as "file:line:col analyzer: message" with paths
// relative to the module root, in a stable total order —
// (file, line, col, analyzer, message) — in both text and -json
// output, so CI logs and golden files diff cleanly run over run. The
// exit status is 0 when clean, 1 when findings exist, and 2 on load
// or usage errors — so CI can gate merges on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ddosim/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	analyzer := flag.String("analyzer", "", "comma-separated analyzer names to run (default: the whole suite)")
	unusedAllows := flag.Bool("unused-allows", false, "also report //simlint:allow annotations that suppress nothing (full suite only)")
	inventory := flag.String("inventory", "", "write the hot-path allocation inventory as JSON to this path (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: simlint [-json] [-list] [-analyzer a,b] [-unused-allows] [-inventory out.json] [pattern ...]\n\n"+
				"Lints the packages matched by the go-tool-style patterns (default ./...)\n"+
				"with DDoSim's simulation-safety suite. Diagnostics are ordered by\n"+
				"(file, line, col, analyzer, message) in both text and -json output.\n\n"+
				"Analyzers (from the registered suite):\n%s\n"+
				"Exit codes:\n"+
				"  0  no findings\n"+
				"  1  findings reported\n"+
				"  2  load or usage error\n\nFlags:\n",
			suiteListing(lint.DefaultSuite()))
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := lint.DefaultSuite()
	if *list {
		fmt.Print(suiteListing(suite))
		return 0
	}
	if *analyzer != "" {
		if *unusedAllows {
			fmt.Fprintln(os.Stderr, "simlint: -unused-allows requires the full suite (drop -analyzer)")
			return 2
		}
		selected, err := selectAnalyzers(suite, *analyzer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		suite = selected
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Overlapping patterns name some packages twice; the loader returns
	// the same *Package each time, and each must be analyzed once.
	var pkgs []*lint.Package
	seen := make(map[*lint.Package]bool)
	for _, pat := range patterns {
		loaded, err := load(loader, cwd, pat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		for _, pkg := range loaded {
			if !seen[pkg] {
				seen[pkg] = true
				pkgs = append(pkgs, pkg)
			}
		}
	}

	if *inventory != "" {
		entries := lint.BuildInventory(pkgs)
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		data = append(data, '\n')
		if *inventory == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*inventory, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	}

	diags := lint.RunWith(pkgs, suite, lint.RunOpts{UnusedAllows: *unusedAllows})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// suiteListing renders the -list/-h analyzer table from the
// registered suite, so documentation cannot drift from the analyzers
// that actually run.
func suiteListing(suite []lint.Analyzer) string {
	var b strings.Builder
	for _, a := range suite {
		fmt.Fprintf(&b, "  %-13s %s\n", a.Name(), a.Doc())
	}
	return b.String()
}

// selectAnalyzers filters the suite down to the named analyzers,
// keeping suite order (which keeps paired analyzers on their shared
// engine together when both are named).
func selectAnalyzers(suite []lint.Analyzer, names string) ([]lint.Analyzer, error) {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []lint.Analyzer
	for _, a := range suite {
		if want[a.Name()] {
			out = append(out, a)
			delete(want, a.Name())
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown analyzer(s) %s (see -list)", strings.Join(unknown, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzer selected nothing")
	}
	return out, nil
}

// load resolves one command-line pattern to packages. Relative
// patterns are anchored at the invoker's working directory, matching
// go-tool behaviour.
func load(loader *lint.Loader, cwd, pat string) ([]*lint.Package, error) {
	abs := func(p string) string {
		if p == "" {
			p = "."
		}
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(cwd, p)
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
		if pat == "..." {
			sub = "."
		}
		return loader.LoadAll(abs(sub))
	}
	pkg, err := loader.Load(abs(pat))
	if err != nil {
		return nil, err
	}
	return []*lint.Package{pkg}, nil
}
