package lint

// inventory.go materializes the shard-confinement engine's view of
// the tree into the work-list artifact behind `cmd/simlint
// -inventory`: every shared-state access site a scheduler-reachable
// handler performs, with the reachability chain that makes it run at
// event time. The sharding work consumes this — "violation" rows are
// blockers, "allowed" rows are audited suppressions to re-review,
// "boundary" rows are the sanctioned message-path crossings the
// partitioned kernel carries as timestamped messages, and "barrier"
// rows are control-plane mutations inside Scheduler.Barrier bodies. The
// allocation-reachability engine (allocfree.go) contributes rows of
// its own: "hotpath" rows name the declared allocation-free roots
// (seeded or //simlint:hotpath), and its violation/allowed rows are
// the allocation sites reachable from them.

import (
	"go/token"
	"sort"
)

// InventoryEntry is one shared-state access site reachable from a
// scheduler callback.
type InventoryEntry struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Analyzer that classified the site (shardconfine or crossnode);
	// empty for boundary rows.
	Analyzer string `json:"analyzer,omitempty"`
	// Class: "violation" (surfaces as a diagnostic), "allowed"
	// (suppressed by an audited //simlint:allow), "boundary" (a
	// sanctioned message-path call), "barrier" (a partition
	// mutation inside a Scheduler.Barrier body — sanctioned), or
	// "hotpath" (a declared
	// allocation-free root of the allocfree engine).
	Class string `json:"class"`
	// Subject is the state touched: a type for partition state, a
	// variable name for globals.
	Subject string `json:"subject"`
	// Detail refines the access: the mutation verb, or the boundary
	// API's function key.
	Detail string `json:"detail,omitempty"`
	// Chain is the reachability path from the handler root.
	Chain string `json:"chain"`
}

// addInventory records one site against u's package positions.
func (eng *confEngine) addInventory(u *confUnit, pos token.Pos, analyzer, class, subject, detail string) {
	position := u.pkg.Fset.Position(pos)
	eng.inventory = append(eng.inventory, InventoryEntry{
		File:     u.pkg.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Class:    class,
		Subject:  subject,
		Detail:   detail,
		Chain:    u.chain(),
	})
}

// BuildInventory runs the shard-confinement pair over pkgs and
// returns every shared-state access site, with violations that an
// allow annotation suppressed reclassified as "allowed". The result
// is deterministically ordered and suitable for committing as a
// golden artifact.
func BuildInventory(pkgs []*Package) []InventoryEntry {
	shardconfine, crossnode := NewShardConfinement()
	allocfree := NewAllocFree()
	diags := Run(pkgs, []Analyzer{shardconfine, crossnode, allocfree})
	surviving := make(map[string]bool, len(diags))
	for _, d := range diags {
		surviving[invKey(d.File, d.Line, d.Col, d.Analyzer)] = true
	}
	eng := shardconfine.(*confAnalyzer).eng
	aeng := allocfree.(*allocAnalyzer).eng
	entries := make([]InventoryEntry, 0, len(eng.inventory)+len(aeng.g.inventory))
	entries = append(entries, eng.inventory...)
	entries = append(entries, aeng.g.inventory...)
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Detail < b.Detail
	})
	// A site can be discovered through several reachability chains
	// (the engine dedups per unit, not globally); keep the first.
	out := entries[:0]
	var last InventoryEntry
	for i, e := range entries {
		if i > 0 && e.File == last.File && e.Line == last.Line && e.Col == last.Col &&
			e.Class == last.Class && e.Analyzer == last.Analyzer &&
			e.Subject == last.Subject && e.Detail == last.Detail {
			continue
		}
		out = append(out, e)
		last = e
	}
	return out
}

func invKey(file string, line, col int, analyzer string) string {
	return file + "\x00" + itoa(line) + "\x00" + itoa(col) + "\x00" + analyzer
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
