package lint

import (
	"regexp"
	"strings"
)

// Allow-annotation grammar:
//
//	//simlint:allow analyzer(reason)
//	//simlint:allow analyzer1,analyzer2(reason)
//
// Analyzer names are lowercase letters and digits (starting with a
// letter); a comma-separated list suppresses several analyzers with
// one shared reason. The annotation suppresses findings of the named
// analyzers on its own line and on the line directly below — so it
// works both as a trailing comment and as a standalone comment above
// the flagged statement. The reason is mandatory: an empty or missing
// reason is itself a diagnostic, so every suppression carries a
// justification a reviewer can audit.
//
// Each annotation also tracks whether it suppressed anything: with
// RunOpts.UnusedAllows, an annotation naming an analyzer that ran but
// reported nothing under it becomes a diagnostic of its own, so stale
// suppressions cannot linger after the code they excused is gone. So
// does a name that is no analyzer of the suite at all — misspelt, or
// left behind by a deleted analyzer — since nothing could ever use it.
var allowRe = regexp.MustCompile(`^//simlint:allow\s+([a-z][a-z0-9]*(?:\s*,\s*[a-z][a-z0-9]*)*)\s*\((.*)\)\s*$`)

// Hot-path annotation grammar:
//
//	//simlint:hotpath
//
// placed in a function declaration's doc comment, declares that
// function an allocation-free hot-path root for the allocfree
// analyzer (allocfree.go): every allocation site reachable from it
// is reported with its call chain. The directive takes no arguments
// — a trailing payload is a malformed annotation, and a hotpath
// directive that is not part of a function's doc comment is an
// allocfree finding of its own (it roots nothing).
var hotpathRe = regexp.MustCompile(`^//simlint:hotpath$`)

// allowEntry is one parsed annotation with per-analyzer usage marks.
type allowEntry struct {
	file      string // relative path, for reporting
	line, col int
	analyzers map[string]bool
	used      map[string]bool
}

// allowIndex holds a package's annotations, addressable by
// file+line for suppression and enumerable for the unused audit.
type allowIndex struct {
	byFile  map[string]map[int]*allowEntry
	entries []*allowEntry
}

// covers reports whether an annotation suppresses analyzer findings
// at file:line, marking the annotation used when it does.
func (idx allowIndex) covers(analyzer, file string, line int) bool {
	lines := idx.byFile[file]
	if lines == nil {
		return false
	}
	hit := false
	for _, l := range [2]int{line, line - 1} {
		if e := lines[l]; e != nil && e.analyzers[analyzer] {
			e.used[analyzer] = true
			hit = true
		}
	}
	return hit
}

// collectAllows scans a package's comments for simlint:allow
// annotations, reporting malformed ones (empty reason, or the
// simlint:allow prefix with unparseable arguments) as diagnostics.
func collectAllows(pkg *Package, diags *[]Diagnostic) allowIndex {
	idx := allowIndex{byFile: make(map[string]map[int]*allowEntry)}
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				// Only directive-shaped comments count: "//simlint:"
				// at the very start, no space — prose that merely
				// mentions the grammar is ignored.
				text := c.Text
				if !strings.HasPrefix(text, "//simlint:") {
					continue
				}
				if hotpathRe.MatchString(text) {
					// Well-formed hot-path root declaration; consumed by
					// the allocfree engine, not an allow.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				bad := func(msg string) {
					*diags = append(*diags, Diagnostic{
						File: pkg.relPath(pos.Filename), Line: pos.Line, Col: pos.Column,
						Analyzer: "allow", Message: msg,
					})
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					bad("malformed simlint: directive; want //simlint:allow analyzer(reason) or //simlint:hotpath")
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad("simlint:allow " + m[1] + " needs a non-empty reason")
					continue
				}
				lines := idx.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int]*allowEntry)
					idx.byFile[pos.Filename] = lines
				}
				e := lines[pos.Line]
				if e == nil {
					e = &allowEntry{
						file: pkg.relPath(pos.Filename), line: pos.Line, col: pos.Column,
						analyzers: make(map[string]bool),
						used:      make(map[string]bool),
					}
					lines[pos.Line] = e
					idx.entries = append(idx.entries, e)
				}
				for _, name := range strings.Split(m[1], ",") {
					e.analyzers[strings.TrimSpace(name)] = true
				}
			}
		}
	}
	return idx
}

// reportUnused emits a diagnostic for every annotation naming an
// analyzer that ran but had nothing to suppress, and for every name
// outside known, the analyzers that exist. Known analyzers outside
// the run set are skipped: a subset run must not condemn annotations
// it never exercised.
func (idx allowIndex) reportUnused(ran, known map[string]bool, diags *[]Diagnostic) {
	for _, e := range idx.entries {
		for name := range e.analyzers { //simlint:allow maporder(RunWith sorts every diagnostic before return)
			var msg string
			switch {
			case !known[name]:
				msg = "simlint:allow names unknown analyzer " + name + "; remove the stale annotation"
			case ran[name] && !e.used[name]:
				msg = "unused simlint:allow " + name + ": no finding suppressed; remove the stale annotation"
			default:
				continue
			}
			*diags = append(*diags, Diagnostic{
				File: e.file, Line: e.line, Col: e.col,
				Analyzer: "allow",
				Message:  msg,
			})
		}
	}
}
