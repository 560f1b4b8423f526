package experiment

import (
	"fmt"

	"tempriv/internal/adversary"
	"tempriv/internal/budget"
	"tempriv/internal/network"
	"tempriv/internal/report"
	"tempriv/internal/topology"
)

// figure1Point is the outcome of the three §5.3 buffering cases at one
// sweep point, measured for flow S1.
type figure1Point struct {
	mseNoDelay, mseUnlimited, mseRCAD float64
	latNoDelay, latUnlimited, latRCAD float64
	mseAdaptiveRCAD                   float64
	msePathAwareRCAD                  float64
	preemptRate                       float64
}

// figure1Sweep runs the paper's three evaluation cases (and both
// adversaries against case 3) at every interarrival in p, in parallel.
func figure1Sweep(p Params) ([]figure1Point, error) {
	paths, err := figure1Paths()
	if err != nil {
		return nil, err
	}
	points := make([]figure1Point, len(p.Interarrivals))
	err = budget.For(len(p.Interarrivals), func(i int) error {
		ia := p.Interarrivals[i]
		pt := &points[i]

		// Case 1: no artificial delay.
		res, sources, err := figure1Run(p, network.PolicyForward, ia)
		if err != nil {
			return err
		}
		s1 := sources[0]
		pt.mseNoDelay, err = scoreFlow(p, res, s1, 0)
		if err != nil {
			return err
		}
		pt.latNoDelay = res.Flows[s1].Latency.Mean

		// Case 2: exponential delay, unlimited buffers.
		res, sources, err = figure1Run(p, network.PolicyUnlimited, ia)
		if err != nil {
			return err
		}
		s1 = sources[0]
		pt.mseUnlimited, err = scoreFlow(p, res, s1, p.MeanDelay)
		if err != nil {
			return err
		}
		pt.latUnlimited = res.Flows[s1].Latency.Mean

		// Case 3: exponential delay, limited buffers with preemption (RCAD).
		res, sources, err = figure1Run(p, network.PolicyRCAD, ia)
		if err != nil {
			return err
		}
		s1 = sources[0]
		pt.mseRCAD, err = scoreFlow(p, res, s1, p.MeanDelay)
		if err != nil {
			return err
		}
		pt.latRCAD = res.Flows[s1].Latency.Mean

		// Figure 3's adaptive adversary against the same case-3 run.
		adaptive, err := adversary.NewAdaptive(p.Tau, p.MeanDelay, p.Capacity, p.Threshold)
		if err != nil {
			return err
		}
		perFlow, err := adversary.ScorePerFlow(adaptive, res.Observations(), res.Truths())
		if err != nil {
			return err
		}
		pt.mseAdaptiveRCAD, err = flowMSE(perFlow, s1)
		if err != nil {
			return err
		}

		// Extension: the path-aware adversary, which also exploits the
		// near-sink flow aggregation the threat model lets it know about.
		pathAware, err := adversary.NewPathAware(p.Tau, p.MeanDelay, p.Capacity, p.Threshold, paths)
		if err != nil {
			return err
		}
		perFlow, err = adversary.ScorePerFlow(pathAware, res.Observations(), res.Truths())
		if err != nil {
			return err
		}
		pt.msePathAwareRCAD, err = flowMSE(perFlow, s1)
		if err != nil {
			return err
		}

		var preempts, arrivals uint64
		for _, ns := range res.Nodes {
			preempts += ns.Preemptions
			arrivals += ns.Arrivals
		}
		if arrivals > 0 {
			pt.preemptRate = float64(preempts) / float64(arrivals)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

func figureNotes(p Params) []string {
	return []string{
		fmt.Sprintf("topology: Figure 1 (flows S1..S4, hop counts 15/22/9/11, %d shared trunk hops)", topology.Figure1TrunkLen),
		fmt.Sprintf("params: %d packets/source, 1/µ=%g, k=%d, τ=%g, seed=%d", p.Packets, p.MeanDelay, p.Capacity, p.Tau, p.Seed),
		"reported flow: S1 (15 hops), as in the paper",
	}
}

// Fig2a reproduces Figure 2(a): the baseline adversary's mean square error
// against the three buffering cases, swept over the packet interarrival
// time 1/λ.
func Fig2a(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	points, err := figure1Sweep(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:     "Figure 2(a): adversary MSE vs packet interarrival time (1/λ)",
		RowHeader: "1/λ",
		Columns:   []string{"NoDelay", "Delay&UnlimitedBuffers", "Delay&LimitedBuffers(RCAD)"},
		Notes: append(figureNotes(p),
			"expected shape: NoDelay ≈ 0; Unlimited small (≈ h/µ² ≈ 1.35e4); RCAD large at small 1/λ, decaying toward Unlimited"),
	}
	for i, ia := range p.Interarrivals {
		t.AddRow(formatSweepLabel(ia), points[i].mseNoDelay, points[i].mseUnlimited, points[i].mseRCAD)
	}
	return t, nil
}

// Fig2b reproduces Figure 2(b): average end-to-end delivery latency for the
// same three cases.
func Fig2b(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	points, err := figure1Sweep(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:     "Figure 2(b): average delivery latency vs packet interarrival time (1/λ)",
		RowHeader: "1/λ",
		Columns:   []string{"NoDelay", "Delay&UnlimitedBuffers", "Delay&LimitedBuffers(RCAD)"},
		Notes: append(figureNotes(p),
			"expected shape: NoDelay = h·τ = 15; Unlimited ≈ h(τ+1/µ) ≈ 465; RCAD between, ≈2.5x below Unlimited at 1/λ=2"),
	}
	for i, ia := range p.Interarrivals {
		t.AddRow(formatSweepLabel(ia), points[i].latNoDelay, points[i].latUnlimited, points[i].latRCAD)
	}
	return t, nil
}

// Fig3 reproduces Figure 3: baseline vs adaptive adversary MSE against the
// RCAD network, swept over 1/λ.
func Fig3(p Params) (*report.Table, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	points, err := figure1Sweep(p)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:     "Figure 3: estimation MSE for the two adversary models (RCAD network)",
		RowHeader: "1/λ",
		Columns:   []string{"BaselineAdversary", "AdaptiveAdversary", "PathAwareAdversary", "preemption-rate"},
		Notes: append(figureNotes(p),
			fmt.Sprintf("adaptive adversary: Erlang-loss threshold %g, per-hop delay min(1/µ, k/λ_flow) in the preemption regime", p.Threshold),
			"path-aware adversary (extension): per-node delay min(1/µ, k/λ_node) using routing knowledge",
			"expected shape: adaptive ≪ baseline at small 1/λ (but not zero), converging as 1/λ grows"),
	}
	for i, ia := range p.Interarrivals {
		t.AddRow(formatSweepLabel(ia), points[i].mseRCAD, points[i].mseAdaptiveRCAD, points[i].msePathAwareRCAD, points[i].preemptRate)
	}
	return t, nil
}
