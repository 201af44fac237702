package lint

import "testing"

// loadRepo loads and type-checks the whole module once, outside the
// timed loop: that cost is go/parser+go/types, not ours.
func loadRepo(b *testing.B) []*Package {
	b.Helper()
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadAll(".")
	if err != nil {
		b.Fatal(err)
	}
	return pkgs
}

// BenchmarkSimlintRepo measures the full-tree analysis cost CI pays
// on every push: each iteration runs the complete default suite from
// scratch, because analyzers are stateful per run. Both
// interprocedural engines collect the unit table anew: the ownership
// engine builds a CFG per unit and runs its summary fixpoint over all
// of them, while allocfree computes call edges and allocation sites
// only for the units its BFS reaches.
func BenchmarkSimlintRepo(b *testing.B) {
	pkgs := loadRepo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, DefaultSuite()); len(diags) != 0 {
			b.Fatalf("tree not clean: %v", diags)
		}
	}
}

// BenchmarkSimlintAnalyzer times each analyzer of the default suite
// alone over the tree. Every iteration takes the analyzer from a fresh
// suite, so no memoized engine state carries over; pktown and
// stalecapture share one engine, so each of them carries its full
// cost.
func BenchmarkSimlintAnalyzer(b *testing.B) {
	pkgs := loadRepo(b)
	for i, a := range DefaultSuite() {
		b.Run(a.Name(), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if diags := Run(pkgs, DefaultSuite()[i:i+1]); len(diags) != 0 {
					b.Fatalf("tree not clean: %v", diags)
				}
			}
		})
	}
}
