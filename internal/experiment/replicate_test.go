package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tempriv/internal/budget"
	"tempriv/internal/network"
	"tempriv/internal/report"
)

// atBudget runs f under a CPU budget of n tokens.
func atBudget(n int, f func()) {
	defer budget.SetForTesting(n)()
	f()
}

// syntheticExperiment returns an experiment whose single cell is a
// deterministic function of the seed, so replication statistics are exactly
// checkable.
func syntheticExperiment(f func(seed uint64) float64) Experiment {
	return Experiment{
		ID:    "synthetic",
		Title: "synthetic",
		Paper: "test",
		Run: func(p Params) (*report.Table, error) {
			t := &report.Table{Title: "synthetic", RowHeader: "x", Columns: []string{"v"}}
			t.AddRow("only", f(p.Seed))
			return t, nil
		},
	}
}

func TestReplicateExactStatistics(t *testing.T) {
	// Seeds 10..14 → values 10..14: mean 12, sample std sqrt(2.5).
	e := syntheticExperiment(func(seed uint64) float64 { return float64(seed) })
	p := Params{Seed: 10}
	tab, err := Replicate(e, p, 5, ReplicateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 2 || tab.Columns[0] != "v" || tab.Columns[1] != "v ±" {
		t.Fatalf("columns = %v", tab.Columns)
	}
	row := tab.Rows[0]
	if math.Abs(row.Values[0]-12) > 1e-12 {
		t.Fatalf("mean = %v, want 12", row.Values[0])
	}
	wantHalf := 1.96 * math.Sqrt(2.5/5)
	if math.Abs(row.Values[1]-wantHalf) > 1e-9 {
		t.Fatalf("ci half-width = %v, want %v", row.Values[1], wantHalf)
	}
	if !strings.Contains(tab.Title, "mean of 5 seeds") {
		t.Fatalf("title = %q", tab.Title)
	}
}

func TestReplicateConstantExperimentHasZeroCI(t *testing.T) {
	e := syntheticExperiment(func(uint64) float64 { return 7 })
	tab, err := Replicate(e, Params{Seed: 1}, 3, ReplicateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].Values[0] != 7 || tab.Rows[0].Values[1] != 0 {
		t.Fatalf("row = %v, want [7 0]", tab.Rows[0].Values)
	}
}

func TestReplicateValidation(t *testing.T) {
	e := syntheticExperiment(func(uint64) float64 { return 0 })
	if _, err := Replicate(e, Params{}, 1, ReplicateConfig{}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := Replicate(Experiment{}, Params{}, 3, ReplicateConfig{}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestReplicateRejectsShapeChange(t *testing.T) {
	e := Experiment{
		ID: "shapeshifter", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			// A different label per seed must be rejected.
			tab.AddRow(fmt.Sprintf("row-%d", p.Seed), 1)
			return tab, nil
		},
	}
	if _, err := Replicate(e, Params{Seed: 1}, 2, ReplicateConfig{}); err == nil {
		t.Fatal("label change across replications accepted")
	}
}

func TestReplicateSkipsNaNCells(t *testing.T) {
	e := Experiment{
		ID: "nan", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			v := math.NaN()
			if p.Seed%2 == 0 {
				v = 4
			}
			tab.AddRow("only", v)
			return tab, nil
		},
	}
	tab, err := Replicate(e, Params{Seed: 2}, 3, ReplicateConfig{}) // seeds 2,3,4 → values 4, NaN, 4
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0].Values[0] != 4 {
		t.Fatalf("NaN cells not skipped: mean = %v", tab.Rows[0].Values[0])
	}
}

// render returns the table's exact text form for byte-level comparison.
func render(t *testing.T, tab *report.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplicateParallelMatchesSerialByteForByte(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 120
	p.Interarrivals = []float64{2, 10}
	var serial *report.Table
	atBudget(1, func() { serial, err = Replicate(e, p, 4, ReplicateConfig{}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 4, 16} {
		var parallel *report.Table
		atBudget(size, func() { parallel, err = Replicate(e, p, 4, ReplicateConfig{}) })
		if err != nil {
			t.Fatal(err)
		}
		if got, want := render(t, parallel), render(t, serial); !bytes.Equal(got, want) {
			t.Fatalf("budget %d output differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
				size, got, want)
		}
	}
}

func TestReplicateParallelSeedDerivationIsByIndex(t *testing.T) {
	// With many tokens the completion order is nondeterministic, but each
	// replication's value must still be folded in by its index-derived seed.
	e := syntheticExperiment(func(seed uint64) float64 { return float64(seed) })
	var tab *report.Table
	var err error
	atBudget(8, func() { tab, err = Replicate(e, Params{Seed: 100}, 8, ReplicateConfig{}) })
	if err != nil {
		t.Fatal(err)
	}
	// Seeds 100..107 → mean 103.5.
	if math.Abs(tab.Rows[0].Values[0]-103.5) > 1e-12 {
		t.Fatalf("mean = %v, want 103.5", tab.Rows[0].Values[0])
	}
	if !strings.Contains(strings.Join(tab.Notes, "\n"), "seeds 100..107") {
		t.Fatalf("notes = %v", tab.Notes)
	}
}

func TestReplicateParallelPropagatesRunError(t *testing.T) {
	boom := errors.New("boom")
	e := Experiment{
		ID: "failing", Title: "t", Paper: "p",
		Run: func(p Params) (*report.Table, error) {
			if p.Seed == 3 {
				return nil, boom
			}
			tab := &report.Table{RowHeader: "x", Columns: []string{"v"}}
			tab.AddRow("only", 1)
			return tab, nil
		},
	}
	var err error
	atBudget(4, func() { _, err = Replicate(e, Params{Seed: 1}, 4, ReplicateConfig{}) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestReplicateRealExperiment(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 150
	p.Interarrivals = []float64{2}
	tab, err := Replicate(e, p, 3, ReplicateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// NoDelay latency is deterministic (h·τ): mean 15, CI 0.
	if math.Abs(tab.Rows[0].Values[0]-15) > 1e-9 || tab.Rows[0].Values[1] != 0 {
		t.Fatalf("NoDelay columns = %v, want [15 0 ...]", tab.Rows[0].Values[:2])
	}
	// RCAD latency varies across seeds: CI strictly positive and small
	// relative to the mean.
	rcadMean, rcadCI := tab.Rows[0].Values[4], tab.Rows[0].Values[5]
	if rcadCI <= 0 {
		t.Fatalf("RCAD CI = %v, want > 0", rcadCI)
	}
	if rcadCI > 0.5*rcadMean {
		t.Fatalf("RCAD CI %v implausibly wide vs mean %v", rcadCI, rcadMean)
	}
}

// TestReplicateEngineReuseMatchesFresh is the engine-reuse differential at
// the experiment layer: the same replicated sweep run three ways — fresh
// engines per replicate, reused engines under budgets of 1 to 16 tokens,
// and a caller-shared engine cache — must render byte-identical tables. Engine reuse is a pure
// execution optimisation; any byte of divergence is state leaking across a
// rearm.
func TestReplicateEngineReuseMatchesFresh(t *testing.T) {
	e, err := ByID("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Packets = 120
	p.Interarrivals = []float64{2, 10}
	const n = 4

	var fresh *report.Table
	atBudget(1, func() { fresh, err = Replicate(e, p, n, ReplicateConfig{FreshEngines: true}) })
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, fresh)

	for _, size := range []int{1, 2, 4, 16} {
		for _, rc := range []ReplicateConfig{{}, {FreshEngines: true}} {
			var got *report.Table
			atBudget(size, func() { got, err = Replicate(e, p, n, rc) })
			if err != nil {
				t.Fatal(err)
			}
			if got := render(t, got); !bytes.Equal(got, want) {
				t.Fatalf("budget %d, %+v differs from fresh engines at budget 1:\n--- got ---\n%s\n--- fresh ---\n%s",
					size, rc, got, want)
			}
		}
	}

	shared := p
	shared.Engines = network.NewEngineCache()
	var cached *report.Table
	atBudget(2, func() { cached, err = Replicate(e, shared, n, ReplicateConfig{}) })
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, cached); !bytes.Equal(got, want) {
		t.Fatalf("caller-shared engine cache diverged from fresh engines:\n--- cached ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestConcurrentReplicatesStayWithinBudget: K concurrent runs, each holding
// a budget token the way scenario.Run does and nesting Replicate → a sweep
// over points, never run more than B sweep-point bodies at once, and all
// of them complete with the same table.
func TestConcurrentReplicatesStayWithinBudget(t *testing.T) {
	for _, b := range []int{1, 2} {
		t.Run(fmt.Sprintf("B=%d", b), func(t *testing.T) {
			defer budget.SetForTesting(b)()
			var running, peak atomic.Int64
			e := Experiment{
				ID: "nested", Title: "t", Paper: "p",
				Run: func(p Params) (*report.Table, error) {
					vals := make([]float64, 4)
					err := budget.For(len(vals), func(i int) error {
						n := running.Add(1)
						defer running.Add(-1)
						for {
							old := peak.Load()
							if n <= old || peak.CompareAndSwap(old, n) {
								break
							}
						}
						time.Sleep(200 * time.Microsecond)
						vals[i] = float64(p.Seed) + float64(i)
						return nil
					})
					tab := &report.Table{RowHeader: "x", Columns: []string{"a", "b", "c", "d"}}
					tab.AddRow("only", vals...)
					return tab, err
				},
			}
			const jobs = 4
			tabs := make([][]byte, jobs)
			var wg sync.WaitGroup
			for k := 0; k < jobs; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					budget.Do(func() {
						tab, err := Replicate(e, Params{Seed: 1}, 3, ReplicateConfig{})
						if err != nil {
							t.Error(err)
							return
						}
						tabs[k] = render(t, tab)
					})
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent replicated runs deadlocked")
			}
			for k := 1; k < jobs; k++ {
				if !bytes.Equal(tabs[k], tabs[0]) {
					t.Fatalf("run %d rendered different bytes", k)
				}
			}
			if p := peak.Load(); p > int64(b) {
				t.Fatalf("%d sweep points ran at once under a budget of %d", p, b)
			}
		})
	}
}
