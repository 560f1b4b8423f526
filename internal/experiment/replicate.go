package experiment

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tempriv/internal/budget"
	"tempriv/internal/metrics"
	"tempriv/internal/network"
	"tempriv/internal/report"
)

// ReplicateSink receives per-replicate tables as the engine produces them —
// the seam that makes replicated runs streamable and crash-resumable
// (internal/resultstream persists each table as a checksummed chunk, the
// HTTP layer serves partials, and a restarted job answers Have from the
// surviving chunks).
//
// The engine calls Have exactly once per replicate, from the calling
// goroutine before any replicate runs, and Emit exactly once per
// replicate, in strict replicate-index order. Emit calls may come from
// different goroutines but never overlap, and each happens after the one
// before it, so a sink needs no internal locking.
type ReplicateSink interface {
	// Have returns an already-persisted table for replicate rep, or nil to
	// have the engine compute it. A non-nil table must be the exact table
	// the replicate's seed would produce — the engine trusts it.
	Have(rep int) *report.Table
	// Emit delivers replicate rep's table in index order. fresh is false
	// for tables that came from Have. A non-nil error aborts the run.
	Emit(rep int, fresh bool, tab *report.Table) error
}

// ReplicateConfig tunes how Replicate executes. Every field is
// execution-only: the output table is byte-identical for any setting.
type ReplicateConfig struct {
	// Sink, when set, streams per-replicate tables and answers resume
	// queries; see ReplicateSink.
	Sink ReplicateSink
	// FreshEngines disables engine reuse: every replicate builds its
	// simulations from scratch, exactly as a plain run does. The knob
	// exists for the differential tests and for debugging; results are
	// byte-identical either way.
	FreshEngines bool
}

// Replicate runs an experiment n times under seeds p.Seed … p.Seed+n−1 and
// aggregates the runs into one table: every value column C of the
// underlying experiment becomes two columns, C (the across-seed mean) and
// "C ±" (the half-width of a normal-approximation 95 % confidence interval,
// 1.96·s/√n). The paper reports single runs; replication quantifies how
// much of each curve is signal.
//
// The replicates fan out over the CPU budget (budget.For) and share one
// engine cache (p.Engines, or a new one) so they reuse arena-backed
// simulation engines instead of rebuilding them per seed. Each replicate's
// seed derives from its index, not from scheduling, and its table is
// folded into the running Welford reduction — and streamed to rc.Sink — in
// strict replicate order as it completes, so the output is byte-identical
// for every budget size and engine setting. With a sink, replicates the
// sink already holds (Have) are not recomputed, and the reduction stays
// byte-identical because the same tables enter it in the same order either
// way. Every replicate runs to completion; the lowest-index error wins.
func Replicate(e Experiment, p Params, n int, rc ReplicateConfig) (*report.Table, error) {
	if e.Run == nil {
		return nil, errors.New("experiment: replicate of experiment without Run")
	}
	if n < 2 {
		return nil, fmt.Errorf("experiment: replication needs n >= 2, got %d", n)
	}
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if rc.FreshEngines {
		p.Engines = nil
	} else if p.Engines == nil {
		p.Engines = network.NewEngineCache()
	}

	// Resume pass: ask the sink which replicates are already in hand
	// before any replicate runs.
	tabs := make([]*report.Table, n)
	fresh := make([]bool, n)
	for rep := range tabs {
		if rc.Sink != nil {
			tabs[rep] = rc.Sink.Have(rep)
		}
		fresh[rep] = tabs[rep] == nil
	}

	// Finished replicates wait in tabs/errs until every lower index is in;
	// advance then folds them (and streams them to the sink) in replicate
	// order. After the first failure it stops folding but keeps draining,
	// so the error is deterministic.
	var (
		mu      sync.Mutex
		acc     tableAccumulator
		errs    = make([]error, n)
		next    int
		stopped bool
	)
	advance := func() {
		for ; next < n && (tabs[next] != nil || errs[next] != nil); next++ {
			tab := tabs[next]
			tabs[next] = nil // release for GC once merged
			if stopped = stopped || errs[next] != nil; stopped {
				continue
			}
			if err := acc.add(tab); err != nil {
				errs[next] = fmt.Errorf("experiment: replication %d %w", next, err)
			} else if rc.Sink != nil {
				if err := rc.Sink.Emit(next, fresh[next], tab); err != nil {
					errs[next] = fmt.Errorf("experiment: replication %d: sink: %w", next, err)
				}
			}
			stopped = errs[next] != nil
		}
	}
	advance()
	_ = budget.For(n, func(rep int) error {
		if !fresh[rep] {
			return nil
		}
		q := p
		q.Seed = p.Seed + uint64(rep)
		tab, err := e.Run(q)
		if err == nil {
			err = tab.Validate()
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs[rep] = fmt.Errorf("experiment: replication %d: %w", rep, err)
		} else {
			tabs[rep] = tab
		}
		advance()
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return acc.table(p, n)
}

// tableAccumulator folds replicate tables, delivered in replicate order,
// into the running across-seed mean ± CI aggregate. Every cell is a
// one-observation Welford accumulator merged into the running cell — the
// identical arithmetic (in the identical order) the pre-streaming
// reduceReplicates performed over a fully materialized table slice, so the
// streaming path is byte-identical to the monolithic one.
type tableAccumulator struct {
	shape *report.Table
	cells [][]metrics.Welford
	reps  int
}

// add folds one replicate's table. The first table fixes the shape; every
// later table must match it exactly.
func (a *tableAccumulator) add(tab *report.Table) error {
	if a.shape == nil {
		a.shape = tab
		a.cells = make([][]metrics.Welford, len(tab.Rows))
		for i, r := range tab.Rows {
			a.cells[i] = make([]metrics.Welford, len(r.Values))
		}
	} else {
		if len(tab.Rows) != len(a.shape.Rows) || len(tab.Columns) != len(a.shape.Columns) {
			return errors.New("changed table shape")
		}
	}
	for i, r := range tab.Rows {
		if r.Label != a.shape.Rows[i].Label {
			return fmt.Errorf("changed row %d label to %q", i, r.Label)
		}
		for j, v := range r.Values {
			if math.IsNaN(v) {
				continue
			}
			var one metrics.Welford
			one.Add(v)
			a.cells[i][j].Merge(&one)
		}
	}
	a.reps++
	return nil
}

// table renders the aggregate after all n replicates have been folded.
func (a *tableAccumulator) table(p Params, n int) (*report.Table, error) {
	if a.reps != n {
		return nil, fmt.Errorf("experiment: reduced %d of %d replications", a.reps, n)
	}
	shape := a.shape
	out := &report.Table{
		Title:     shape.Title + fmt.Sprintf(" — mean of %d seeds", n),
		RowHeader: shape.RowHeader,
		Notes: append(append([]string(nil), shape.Notes...),
			fmt.Sprintf("replicated over seeds %d..%d; ± columns are 1.96·s/√n (normal-approx 95%% CI)", p.Seed, p.Seed+uint64(n)-1)),
	}
	for _, c := range shape.Columns {
		out.Columns = append(out.Columns, c, c+" ±")
	}
	for i, r := range shape.Rows {
		values := make([]float64, 0, 2*len(r.Values))
		for j := range r.Values {
			w := &a.cells[i][j]
			if w.Count() == 0 {
				values = append(values, math.NaN(), math.NaN())
				continue
			}
			half := 0.0
			if w.Count() > 1 {
				// Sample std needs the n/(n−1) correction on the population
				// variance Welford reports.
				nn := float64(w.Count())
				sampleVar := w.Variance() * nn / (nn - 1)
				half = 1.96 * math.Sqrt(sampleVar/nn)
			}
			values = append(values, w.Mean(), half)
		}
		out.AddRow(r.Label, values...)
	}
	return out, nil
}
