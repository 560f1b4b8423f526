package main

import (
	"encoding/json"
	"math/rand"
	"sync"
)

// The workloads' inputs are scenario specs drawn from the workload seed.
// Each spec carries its own simulation seed, so distinct draws never share
// a fingerprint and a fresh spec can never be a cache hit.

// shape is the cost-determining part of a spec.
type shape struct {
	Kind         string // fig2a | fig2b | fig3 | sim
	Packets      int
	Replicates   int
	Interarrival float64
}

// freshDeck is serve-fresh's spec mix: four packet bands covering 100–400
// crossed with the replicate counts 1, 2, 4 and 8, the four kinds and the
// interarrivals 2–8 spread evenly across them. Jobs walk seeded shuffles of
// the whole deck, so every run does nearly the same amount of engine work
// whatever its seed.
func freshDeck() []shape {
	kinds := []string{"fig2a", "fig2b", "fig3", "sim"}
	var deck []shape
	for pi := 0; pi < 4; pi++ {
		for ri, r := range []int{1, 2, 4, 8} {
			ia := float64(2 + 2*((pi+2*ri)%4))
			deck = append(deck, shape{Kind: kinds[(pi+ri)%4], Packets: 100 + 75*pi, Replicates: r, Interarrival: ia})
		}
	}
	return deck
}

// specJSON renders a shape as a v1 scenario document. Experiment specs
// sweep two interarrivals; simulation specs run the Figure-1 network under
// RCAD scored by the adaptive adversary.
func specJSON(s shape, seed uint64) []byte {
	ia := s.Interarrival
	var doc map[string]any
	if s.Kind == "sim" {
		doc = map[string]any{"version": 1, "simulation": map[string]any{
			"topology":   map[string]any{"kind": "figure1"},
			"traffic":    map[string]any{"kind": "periodic", "interval": ia},
			"policy":     "rcad",
			"adversary":  "adaptive",
			"packets":    s.Packets,
			"replicates": s.Replicates,
			"seed":       seed,
		}}
	} else {
		doc = map[string]any{"version": 1, "experiment": map[string]any{
			"id":            s.Kind,
			"packets":       s.Packets,
			"interarrivals": []float64{ia, ia + 10},
			"replicates":    s.Replicates,
			"seed":          seed,
		}}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a map of plain values always encodes
	}
	return b
}

// order is a deterministic endless sequence over 0..n-1: a fresh seeded
// shuffle of every index, round after round. Safe for concurrent use.
type order struct {
	n      int
	seed   int64
	mu     sync.Mutex
	rounds map[int][]int
}

func newOrder(n int, seed int64) *order {
	return &order{n: n, seed: seed, rounds: map[int][]int{}}
}

func (o *order) at(i int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	round := i / o.n
	perm, ok := o.rounds[round]
	if !ok {
		perm = rand.New(rand.NewSource(o.seed + int64(round))).Perm(o.n)
		o.rounds[round] = perm
	}
	return perm[i%o.n]
}

// specStream yields the i-th spec of a workload deterministically from the
// workload seed: shapes walk an order over the deck, the packet count is
// drawn within the shape's 75-packet band (so job costs, and with them the
// latency percentiles, vary smoothly rather than in steps), and spec i
// gets simulation seed base+i.
type specStream struct {
	deck  []shape
	order *order
	seed  int64
	base  uint64
}

func newSpecStream(deck []shape, seed uint64, salt int64) *specStream {
	s := int64(seed)*7919 + salt
	return &specStream{deck: deck, order: newOrder(len(deck), s), seed: s, base: 1000 + seed*1_000_003 + uint64(salt)*100_000}
}

func (s *specStream) at(i int) []byte {
	sh := s.deck[s.order.at(i)]
	sh.Packets += rand.New(rand.NewSource(s.seed ^ int64(i)*2654435761)).Intn(76)
	return specJSON(sh, s.base+uint64(i))
}

// warmSet is the repeated working set of the cache-hit workloads: n small
// specs of every kind (100 packets, one replicate), seeded from the
// workload seed.
func warmSet(n int, seed uint64) [][]byte {
	kinds := []string{"fig2b", "fig2a", "fig3", "sim"}
	out := make([][]byte, n)
	for i := range out {
		out[i] = specJSON(shape{Kind: kinds[i%4], Packets: 100, Replicates: 1, Interarrival: float64(2 + 2*(i%5))}, 500_000+seed*1000+uint64(i))
	}
	return out
}
