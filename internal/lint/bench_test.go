package lint

import "testing"

// BenchmarkSimlintRepo measures the full-tree analysis cost CI pays
// on every push: the module is loaded and type-checked once (that
// cost is go/parser+go/types, not ours), then each iteration runs the
// complete default suite from scratch, because analyzers are stateful
// per run. Both interprocedural engines collect the unit table anew:
// the ownership engine builds a CFG per unit and runs its summary
// fixpoint over all of them, while allocfree computes call edges and
// allocation sites only for the units its BFS reaches.
func BenchmarkSimlintRepo(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadAll(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs, DefaultSuite()); len(diags) != 0 {
			b.Fatalf("tree not clean: %v", diags)
		}
	}
}
