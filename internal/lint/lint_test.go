package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden diagnostic files")

// sharedLoader is the one Loader of the test binary: the standard
// library and the module are type-checked once, and every test reads
// the packages it caches.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

func testLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func loadFixture(t *testing.T, l *Loader, rel string) *Package {
	t.Helper()
	pkg, err := l.Load(filepath.Join("internal/lint/testdata", rel))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// checkGolden runs the analyzer over the fixture and compares the
// rendered diagnostics with testdata/golden/<name>.txt.
func checkGolden(t *testing.T, name string, pkgs []*Package, analyzers []Analyzer) {
	t.Helper()
	var b strings.Builder
	for _, d := range Run(pkgs, analyzers) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWallclock(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "wallclock/clocked")
	checkGolden(t, "wallclock", []*Package{pkg}, []Analyzer{NewWallclock()})
}

func TestGlobalRand(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "globalrand/randy")
	checkGolden(t, "globalrand", []*Package{pkg}, []Analyzer{NewGlobalRand()})
}

func TestMapOrder(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "maporder/netsim")
	checkGolden(t, "maporder", []*Package{pkg}, []Analyzer{NewMapOrder()})
}

// TestMapOrderSkipsDrivers: the same fixture, placed under cmd/, keeps
// only the reason-less annotation finding; its map ranges pass.
func TestMapOrderSkipsDrivers(t *testing.T) {
	l := testLoader(t)
	drv := *loadFixture(t, l, "maporder/netsim")
	drv.Dir = filepath.Join(drv.Root, "cmd", "netsim")
	if diags := Run([]*Package{&drv}, []Analyzer{NewMapOrder()}); len(diags) != 1 {
		t.Errorf("a package under cmd/ should only report the bad annotation, got %v", diags)
	}
}

func TestSchedBlock(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "schedblock/schedy")
	checkGolden(t, "schedblock", []*Package{pkg}, []Analyzer{NewSchedBlock()})
}

// ownershipSuite returns the pktown/stalecapture pair as an analyzer
// slice (they must run off one shared engine).
func ownershipSuite() []Analyzer {
	pktown, stalecapture := NewOwnership()
	return []Analyzer{pktown, stalecapture}
}

func TestPktOwn(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "pktown/pktfix")
	checkGolden(t, "pktown", []*Package{pkg}, ownershipSuite())
}

// TestPktOwnUAF pins the deliberate use-after-release fixture — the
// same code internal/netsim/sanitize_test.go executes under -tags
// simdebug — to its exact file:line.
func TestPktOwnUAF(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "pktown/uaf")
	diags := Run([]*Package{pkg}, ownershipSuite())
	checkGolden(t, "pktown_uaf", []*Package{pkg}, ownershipSuite())
	if len(diags) != 1 || diags[0].Analyzer != "pktown" ||
		diags[0].File != "internal/lint/testdata/pktown/uaf/uaf.go" {
		t.Fatalf("want exactly one pktown finding in uaf.go, got %v", diags)
	}
}

// TestPktOwnInLiteral pins ownership findings inside scheduled
// function literals: a leak names the literal by its enclosing
// function, and a use after release is caught in the literal's body.
func TestPktOwnInLiteral(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "pktown/inlit")
	checkGolden(t, "pktown_inlit", []*Package{pkg}, ownershipSuite())
}

func TestStaleCapture(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "stalecapture/stalefix")
	checkGolden(t, "stalecapture", []*Package{pkg}, ownershipSuite())
}

// TestAllowMulti covers the extended allow grammar: comma-separated
// analyzer lists, digits in names, and malformed-annotation
// diagnostics.
func TestAllowMulti(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "allowlist/multi")
	checkGolden(t, "allowmulti", []*Package{pkg}, ownershipSuite())
}

// TestRunOrdering: Run's output must be totally ordered by
// (file, line, col, analyzer, message) — the stability contract
// cmd/simlint documents for both text and -json output.
func TestRunOrdering(t *testing.T) {
	l := testLoader(t)
	pkgs := []*Package{
		loadFixture(t, l, "pktown/pktfix"),
		loadFixture(t, l, "stalecapture/stalefix"),
	}
	diags := Run(pkgs, ownershipSuite())
	if len(diags) < 2 {
		t.Fatalf("expected several findings, got %v", diags)
	}
	less := func(a, b Diagnostic) bool {
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	}
	for i := 1; i < len(diags); i++ {
		if less(diags[i], diags[i-1]) {
			t.Errorf("diagnostics out of order at %d: %v before %v", i, diags[i-1], diags[i])
		}
	}
}

// TestRepoClean is the acceptance gate in unit-test form: the default
// suite over every package in the module must come back empty, i.e.
// `go run ./cmd/simlint ./...` exits 0 on this tree.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	l := testLoader(t)
	pkgs, err := l.LoadAll(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	for _, d := range Run(pkgs, DefaultSuite()) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestUnusedAllows covers the -unused-allows audit of names: an
// annotation naming an analyzer that does not exist is reported even
// though that analyzer is in no run set, and only under the audit.
func TestUnusedAllows(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "allowlist/unused")
	if diags := Run([]*Package{pkg}, allocfreeSuite()); len(diags) != 0 {
		t.Fatalf("the annotation is well-formed; want no diagnostic without the audit, got %v", diags)
	}
	diags := RunWith([]*Package{pkg}, allocfreeSuite(), RunOpts{UnusedAllows: true})
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic (the unknown analyzer name), got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "allow" || !strings.Contains(d.Message, "unknown analyzer shardconfine") {
		t.Fatalf("want an unknown-analyzer report for the annotation, got %v", d)
	}
	if d.File != "internal/lint/testdata/allowlist/unused/unused.go" || d.Line != 11 {
		t.Fatalf("unknown-analyzer report at wrong site: %v", d)
	}

	// Known analyzers outside the run set stay unaudited: an
	// allocfree-only run over the multi fixture reports its unknown
	// ipv6check2 name, not its pktown,stalecapture annotation.
	multi := loadFixture(t, l, "allowlist/multi")
	var unknown []Diagnostic
	for _, d := range RunWith([]*Package{multi}, allocfreeSuite(), RunOpts{UnusedAllows: true}) {
		if strings.Contains(d.Message, "unused simlint:allow") {
			t.Errorf("subset run audited an analyzer it did not run: %v", d)
		}
		if strings.Contains(d.Message, "unknown analyzer") {
			unknown = append(unknown, d)
		}
	}
	if len(unknown) != 1 || !strings.Contains(unknown[0].Message, "ipv6check2") || unknown[0].Line != 20 {
		t.Errorf("want one unknown-analyzer report for ipv6check2 at multi.go:20, got %v", unknown)
	}
}

// TestInventory exercises the machine-readable artifact: suppressed
// findings come back reclassified as "allowed", surviving ones as
// "violation", hot roots as "hotpath", and the rows are totally
// ordered.
func TestInventory(t *testing.T) {
	l := testLoader(t)
	pkgs := []*Package{
		loadFixture(t, l, "allocfree/hotalloc"),
		loadFixture(t, l, "allowlist/unusedalloc"),
	}
	inv := BuildInventory(pkgs)
	var violations, allowed, hotpaths int
	for _, e := range inv {
		switch e.Class {
		case "violation":
			violations++
		case "allowed":
			allowed++
		case "hotpath":
			hotpaths++
		default:
			t.Errorf("unknown inventory class %q in %+v", e.Class, e)
		}
		if e.File == "" || e.Line == 0 || e.Chain == "" {
			t.Errorf("inventory row missing position or chain: %+v", e)
		}
	}
	if violations != 1 {
		t.Errorf("want hotalloc's one surviving allocation as a violation, got %d rows: %+v", violations, inv)
	}
	if allowed != 1 {
		t.Errorf("want exactly unusedalloc's live suppression as allowed, got %d", allowed)
	}
	if hotpaths != 3 {
		t.Errorf("want the fixtures' three //simlint:hotpath roots as hotpath rows, got %d", hotpaths)
	}
	for i := 1; i < len(inv); i++ {
		a, b := inv[i-1], inv[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("inventory out of order at %d: %+v before %+v", i, a, b)
		}
	}
}

// allocfreeSuite returns a fresh allocfree analyzer; like the other
// engine-backed analyzers it memoizes Prepare, so each Run gets its
// own instance.
func allocfreeSuite() []Analyzer {
	return []Analyzer{NewAllocFree()}
}

// TestAllocFreeHotAlloc pins the deliberate hot-path allocation — the
// same per-event closure internal/sim/allocsentinel_test.go executes
// under -tags simdebug — to its exact file:line, mirroring
// TestPktOwnUAF's one-bug-two-catchers contract. The pre-bound
// BoundPump.Tick in the same fixture must stay silent.
func TestAllocFreeHotAlloc(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "allocfree/hotalloc")
	diags := Run([]*Package{pkg}, allocfreeSuite())
	checkGolden(t, "allocfree_hotalloc", []*Package{pkg}, allocfreeSuite())
	if len(diags) != 1 || diags[0].Analyzer != "allocfree" ||
		diags[0].File != "internal/lint/testdata/allocfree/hotalloc/hotalloc.go" ||
		diags[0].Line != 22 {
		t.Fatalf("want exactly one allocfree finding at hotalloc.go:22, got %v", diags)
	}
}

// TestAllocFreeGrammar covers the hotpath grammar edges: a floating
// directive roots nothing and says so, trailing junk is a malformed
// directive, and a comma-separated allow list naming allocfree
// alongside another analyzer suppresses the finding.
func TestAllocFreeGrammar(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "allocfree/hotgrammar")
	checkGolden(t, "allocfree_grammar", []*Package{pkg}, allocfreeSuite())
}

// TestUnusedAllocAllows covers the -unused-allows audit for the new
// analyzer: the live suppression on the hot make is consumed, the
// stale one on the cold path is reported.
func TestUnusedAllocAllows(t *testing.T) {
	l := testLoader(t)
	pkg := loadFixture(t, l, "allowlist/unusedalloc")
	diags := RunWith([]*Package{pkg}, allocfreeSuite(), RunOpts{UnusedAllows: true})
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic (the stale allow), got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "allow" || !strings.Contains(d.Message, "unused simlint:allow allocfree") {
		t.Fatalf("want an unused-allow report for the stale annotation, got %v", d)
	}
	if d.File != "internal/lint/testdata/allowlist/unusedalloc/unusedalloc.go" || d.Line != 19 {
		t.Fatalf("unused-allow report at wrong site: %v", d)
	}
}
