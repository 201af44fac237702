package lint

import "testing"

// BenchmarkSimlintRepo measures the full-tree analysis cost CI pays
// on every push: the module is loaded and type-checked once (that
// cost is go/parser+go/types, not ours), then each iteration runs the
// complete default suite — including the ownership and allocfree
// engines, which rebuild their summaries and call graph from scratch
// because analyzers are stateful per run.
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
