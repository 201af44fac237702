package lint

// inventory.go materializes the allocfree engine's view of the tree
// into the work-list artifact behind `cmd/simlint -inventory`:
// "hotpath" rows name the declared allocation-free roots (seeded or
// //simlint:hotpath), "violation" rows are allocation sites reachable
// from them that surface as diagnostics, and "allowed" rows are the
// same sites suppressed by an audited //simlint:allow, to re-review.

import (
	"go/token"
	"sort"
	"strconv"
)

// InventoryEntry is one hot-path root or one allocation site
// reachable from a hot-path root.
type InventoryEntry struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Analyzer that classified the site: always allocfree.
	Analyzer string `json:"analyzer,omitempty"`
	// Class: "violation" (surfaces as a diagnostic), "allowed"
	// (suppressed by an audited //simlint:allow), or "hotpath" (a
	// declared allocation-free root).
	Class string `json:"class"`
	// Subject is the allocation kind (make, boxing, closure, …), or
	// the root function for hotpath rows.
	Subject string `json:"subject"`
	// Detail describes the allocation, or how the root was declared.
	Detail string `json:"detail,omitempty"`
	// Chain is the reachability path from the hot root.
	Chain string `json:"chain"`
}

// addInventory records one site against u's package positions.
func (eng *allocEngine) addInventory(u *unit, pos token.Pos, class, subject, detail string) {
	position := u.pkg.Fset.Position(pos)
	eng.inventory = append(eng.inventory, InventoryEntry{
		File:     u.pkg.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: "allocfree",
		Class:    class,
		Subject:  subject,
		Detail:   detail,
		Chain:    u.chain(),
	})
}

// BuildInventory runs allocfree over pkgs and returns every hot-path
// root and reachable allocation site, with violations that an allow
// annotation suppressed reclassified as "allowed". Each site is
// recorded once: the engine sweeps every reached unit once, and a
// unit's sites are deduplicated by position and kind. The result is
// deterministically ordered and suitable for committing as a golden
// artifact.
func BuildInventory(pkgs []*Package) []InventoryEntry {
	allocfree := NewAllocFree()
	diags := Run(pkgs, []Analyzer{allocfree})
	surviving := make(map[string]bool, len(diags))
	for _, d := range diags {
		surviving[invKey(d.File, d.Line, d.Col, d.Analyzer)] = true
	}
	// A fresh non-nil slice, so an empty inventory marshals as [].
	entries := append([]InventoryEntry{}, allocfree.(*allocEngine).inventory...)
	for i := range entries {
		e := &entries[i]
		if e.Class == "violation" && !surviving[invKey(e.File, e.Line, e.Col, e.Analyzer)] {
			e.Class = "allowed"
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Detail < b.Detail
	})
	return entries
}

func invKey(file string, line, col int, analyzer string) string {
	return file + "\x00" + strconv.Itoa(line) + "\x00" + strconv.Itoa(col) + "\x00" + analyzer
}
