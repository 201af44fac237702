package sim

import "testing"

func TestSourceRegistry(t *testing.T) {
	a := NewSource("test.registry.a")
	b := NewSource("test.registry.b")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids a=%d b=%d: want two distinct nonzero ids", a, b)
	}
	if again := NewSource("test.registry.a"); again != a {
		t.Errorf("registering a name twice: got %d, then %d", a, again)
	}
	if a.String() != "test.registry.a" || b.String() != "test.registry.b" {
		t.Errorf("names = %q, %q", a, b)
	}
	if z := NewSource(""); z != 0 || z.String() != "" {
		t.Errorf(`NewSource("") = %d named %q, want the zero Source named ""`, z, z)
	}
}

// TestKernelCountsBySource: the kernel counts every delivered event
// under its Source, hands the hook the registered name, and keeps the
// peak of the pending count the hook sees — without a hook too.
func TestKernelCountsBySource(t *testing.T) {
	src := NewSource("test.kernel.counts")
	for _, hooked := range []bool{false, true} {
		s := NewScheduler(1)
		var names []string
		var peak int
		if hooked {
			s.SetHook(func(_ Time, name string, pending int) {
				names = append(names, name)
				peak = max(peak, pending)
			})
		}
		s.ScheduleSrc(Millisecond, src, func() {})
		s.Schedule(2*Millisecond, func() {})
		tk := NewTicker(s, 3*Millisecond, func() {})
		tk.Source = src
		tk.Start()
		if err := s.Run(10 * Millisecond); err != nil {
			t.Fatal(err)
		}
		by := s.EventsBySource()
		if by[src] != 4 || by[0] != 1 {
			t.Errorf("hooked=%v: by source = %v, want 4 of %d and 1 unlabelled", hooked, by, src)
		}
		var sum uint64
		for _, n := range by {
			sum += n
		}
		if sum != s.Processed() {
			t.Errorf("hooked=%v: per-source counts sum to %d, processed %d", hooked, sum, s.Processed())
		}
		// Three events start queued, so the first pop leaves 2; after
		// that only the ticker's next tick waits.
		if got := s.PeakPending(); got != 2 {
			t.Errorf("hooked=%v: peak pending = %d, want 2", hooked, got)
		}
		if hooked {
			want := []string{"test.kernel.counts", "", "test.kernel.counts", "test.kernel.counts", "test.kernel.counts"}
			if len(names) != len(want) {
				t.Fatalf("hook names = %q, want %q", names, want)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Errorf("hook names = %q, want %q", names, want)
					break
				}
			}
			if peak != s.PeakPending() {
				t.Errorf("hook saw peak %d, kernel kept %d", peak, s.PeakPending())
			}
		}
	}
}

// TestLabelledRunAllocFree pins that counting per source costs the run
// loop no allocation.
func TestLabelledRunAllocFree(t *testing.T) {
	src := NewSource("test.kernel.alloc")
	s := NewScheduler(1)
	var fn func()
	fn = func() { s.ScheduleSrc(Microsecond, src, fn) }
	s.ScheduleSrc(Microsecond, src, fn)
	if err := s.Run(Millisecond); err != nil { // warm the slot table and lane
		t.Fatal(err)
	}
	horizon := s.Now()
	allocs := testing.AllocsPerRun(100, func() {
		horizon += Millisecond
		if err := s.Run(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("labelled run loop: %v allocs per 1000 events, want 0", allocs)
	}
}
