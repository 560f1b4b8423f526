// Package budget is the process's one CPU budget: a pool of
// runtime.GOMAXPROCS(0) tokens that all simulation parallelism draws from —
// concurrent jobs, the replicates of a job, the sweep points of a
// replicate. A goroutine simulates only while it holds a token, so however
// those layers nest, at most Size() goroutines simulate at once.
//
// Do takes a token for a whole unit of work and must not be called while
// holding one. For fans a loop out over idle tokens and never blocks on
// the pool, so nested fan-outs cannot deadlock. A helper For recruits
// gives its token back after every item, and Go hands a freed slot to a
// blocked sender first, so a waiting Do waits at most one item.
package budget

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens is the pool: a held token is one element in the buffer.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// Size returns the number of tokens in the budget.
func Size() int { return cap(tokens) }

// Do runs f while holding one token, waiting until one is free.
func Do(f func()) {
	t := tokens
	t <- struct{}{}
	defer func() { <-t }()
	f()
}

// For runs f(i) for every i in [0, n) and returns the error of the lowest
// index that failed; every item runs either way. The calling goroutine
// runs items itself; before each one it recruits a helper goroutine for
// every idle token while two or more items are unclaimed. A helper returns
// its token after each item and goes on only if it can retake one at once.
// Every goroutine yields its P after each item: goroutines that hold no
// token, such as request handlers serving cache hits, would otherwise
// wait for the scheduler to preempt a simulation.
func For(n int, f func(i int) error) error {
	t := tokens
	errs := make([]error, n)
	var next atomic.Int64 // the lowest unclaimed index
	var wg sync.WaitGroup
	help := func(i int) {
		defer wg.Done()
		for i < n {
			errs[i] = f(i)
			<-t
			runtime.Gosched()
			select {
			case t <- struct{}{}:
				i = int(next.Add(1) - 1)
			default:
				return
			}
		}
		<-t
	}
	for {
		for int(next.Load()) < n-1 {
			select {
			case t <- struct{}{}:
				wg.Add(1)
				go help(int(next.Add(1) - 1))
				continue
			default:
			}
			break
		}
		i := int(next.Add(1) - 1)
		if i >= n {
			break
		}
		errs[i] = f(i)
		runtime.Gosched()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetForTesting replaces the budget with one of n tokens and returns a
// function that restores the previous one, so tests can run one process
// under several budget sizes. No goroutine may hold or wait for a token
// while it is called.
func SetForTesting(n int) (restore func()) {
	old := tokens
	tokens = make(chan struct{}, n)
	return func() { tokens = old }
}
