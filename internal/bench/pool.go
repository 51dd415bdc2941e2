package bench

import (
	"runtime"
	"sync"
)

// sweep runs fn(i) for every i in [0, points) across a pool of GOMAXPROCS
// workers and returns the first error in index order. Sweep points must be
// independent and deterministically seeded by their index, and must write
// their result into a pre-indexed slot; the assembled table is then
// byte-identical to a sequential run regardless of scheduling.
func sweep(points int, fn func(i int) error) error {
	if points <= 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), points)
	errs := make([]error, points)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < points; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
