package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelMap evaluates fn for every index in [0, jobs) across a
// worker pool and returns the results in index order. Simulations are
// self-contained and seed-deterministic, so concurrent evaluation
// cannot change any result — only the wall-clock of a sweep.
func parallelMap[T any](jobs int, fn func(i int) (T, error)) ([]T, error) {
	if jobs <= 0 {
		return nil, nil
	}
	workers := runtime.NumCPU()
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]T, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	next := make(chan int)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	return results, nil
}
