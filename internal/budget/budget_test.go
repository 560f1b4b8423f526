package budget

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gauge tracks how many bodies run at once and the peak it reached.
type gauge struct{ cur, peak atomic.Int64 }

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

func TestFor(t *testing.T) {
	defer SetForTesting(4)()
	var total atomic.Int64
	if err := For(100, func(i int) error {
		total.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", total.Load())
	}

	t.Run("first error by index", func(t *testing.T) {
		var ran atomic.Int64
		err := For(10, func(i int) error {
			ran.Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("error = %v, want item 3", err)
		}
		if ran.Load() != 10 {
			t.Fatalf("%d items ran, want all 10 despite the errors", ran.Load())
		}
	})
	t.Run("n = 0", func(t *testing.T) {
		if err := For(0, func(int) error { return errors.New("called") }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("budget larger than n", func(t *testing.T) {
		defer SetForTesting(16)()
		var g gauge
		seen := make([]atomic.Int64, 3)
		if err := For(3, func(i int) error {
			g.enter()
			defer g.exit()
			seen[i].Add(1)
			time.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("item %d ran %d times", i, seen[i].Load())
			}
		}
		if g.peak.Load() > 3 {
			t.Fatalf("peak concurrency %d over 3 items", g.peak.Load())
		}
		if len(tokens) != 0 {
			t.Fatalf("%d tokens still held after For returned", len(tokens))
		}
	})
}

// TestForRecruitsFreedToken: a For that starts while every token is held
// runs inline, and picks up a helper as soon as a token frees.
func TestForRecruitsFreedToken(t *testing.T) {
	defer SetForTesting(1)()
	release, held := make(chan struct{}), make(chan struct{})
	doDone := make(chan struct{})
	go func() {
		Do(func() {
			close(held)
			<-release
		})
		close(doDone)
	}()
	<-held

	// Items 1 and 2 meet at a barrier: they can only both arrive if a
	// helper runs one of them beside the calling goroutine.
	var barrier sync.WaitGroup
	barrier.Add(2)
	met := make(chan struct{})
	go func() { barrier.Wait(); close(met) }()
	err := For(3, func(i int) error {
		if i == 0 {
			close(release)
			<-doDone
			return nil
		}
		barrier.Done()
		select {
		case <-met:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("item %d: no helper was recruited after the token freed", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNestedFanOutStaysWithinBudget: K concurrent Do calls, each fanning
// out over replicates that each fan out over sweep points, never run more
// than B leaf bodies at once, and all of them complete.
func TestNestedFanOutStaysWithinBudget(t *testing.T) {
	for _, b := range []int{1, 2} {
		t.Run(fmt.Sprintf("B=%d", b), func(t *testing.T) {
			defer SetForTesting(b)()
			const jobs, reps, points = 4, 3, 5
			var g gauge
			var leaves atomic.Int64
			var wg sync.WaitGroup
			for k := 0; k < jobs; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					Do(func() {
						_ = For(reps, func(int) error {
							return For(points, func(int) error {
								g.enter()
								defer g.exit()
								leaves.Add(1)
								time.Sleep(200 * time.Microsecond)
								return nil
							})
						})
					})
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("nested fan-out deadlocked")
			}
			if got := leaves.Load(); got != jobs*reps*points {
				t.Fatalf("%d leaf bodies ran, want %d", got, jobs*reps*points)
			}
			if p := g.peak.Load(); p > int64(b) {
				t.Fatalf("peak concurrency %d exceeds the budget of %d", p, b)
			}
		})
	}
}
