package network

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"tempriv/internal/budget"
	"tempriv/internal/buffer"
	"tempriv/internal/delay"
	"tempriv/internal/mix"
	"tempriv/internal/packet"
	"tempriv/internal/rng"
	"tempriv/internal/sim"
	"tempriv/internal/telemetry"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

// resultSignature serialises everything observable about a Result except the
// manifest's wall-clock measurements, which legitimately vary between runs.
func resultSignature(t *testing.T, res *Result) string {
	t.Helper()
	m := *res.Manifest
	m.WallSeconds = 0
	m.EventsPerSec = 0
	m.PeakHeapBytes = 0
	stripped := *res
	stripped.Manifest = &m
	b, err := json.Marshal(&stripped)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return string(b)
}

// engineSpec is one randomly drawn simulation shape for the reuse property
// test. buildConfig materialises a fresh Config (fresh traffic processes —
// OnOff is stateful — and fresh distribution values) for a given seed, the
// same way a well-behaved engine caller would.
type engineSpec struct {
	name  string
	build func(seed uint64) Config
}

// mustProc and mustDist unwrap constructor results; the configs under test
// are all statically valid, so a failure is a test bug worth panicking on.
func mustProc(p traffic.Process, err error) traffic.Process {
	if err != nil {
		panic(fmt.Sprintf("traffic: %v", err))
	}
	return p
}

func mustDist(d delay.Distribution, err error) delay.Distribution {
	if err != nil {
		panic(fmt.Sprintf("delay: %v", err))
	}
	return d
}

// randomEngineSpecs draws a set of structurally varied configs: topology,
// policy, channel/ARQ, failures, sealing, rate control and traffic process
// all vary, covering every subsystem rearm has to reset. With mixes set,
// every spec installs a factory-built batching mix (mix.ThresholdMix or
// mix.TimedMix) through PolicyCustom instead of a built-in policy.
func randomEngineSpecs(t *testing.T, src *rng.Source, n int, mixes bool) []engineSpec {
	t.Helper()
	specs := make([]engineSpec, 0, n)
	prefix := "spec"
	if mixes {
		prefix = "mix"
	}
	for i := 0; i < n; i++ {
		i := i
		topoKind := src.Intn(3)
		var policy PolicyKind
		var mixName string
		var factory func(*sim.Scheduler, buffer.Forward, *rng.Source) (buffer.Policy, error)
		if mixes {
			policy = PolicyCustom
			if src.Bernoulli(0.5) {
				mixName = "-threshold-mix"
				factory = func(s *sim.Scheduler, f buffer.Forward, r *rng.Source) (buffer.Policy, error) {
					return mix.NewThresholdMix(s, f, 3, 1, r)
				}
			} else {
				mixName = "-timed-mix"
				factory = func(s *sim.Scheduler, f buffer.Forward, r *rng.Source) (buffer.Policy, error) {
					return mix.NewTimedMix(s, f, 6, r)
				}
			}
		} else {
			policy = []PolicyKind{PolicyForward, PolicyUnlimited, PolicyDropTail, PolicyRCAD}[src.Intn(4)]
		}
		procKind := src.Intn(3)
		withChannel := src.Bernoulli(0.4)
		withARQ := withChannel && src.Bernoulli(0.6)
		withFailure := src.Bernoulli(0.3)
		withRepair := withFailure && src.Bernoulli(0.5)
		withSeal := src.Bernoulli(0.2)
		withRateCtl := policy == PolicyRCAD && src.Bernoulli(0.4)
		withPerNode := policy != PolicyForward && src.Bernoulli(0.3)
		packets := 20 + src.Intn(40)
		interval := 1 + 4*src.Float64()
		capacity := 3 + src.Intn(8)

		build := func(seed uint64) Config {
			var topo *topology.Topology
			var sources []packet.NodeID
			var err error
			switch topoKind {
			case 0:
				topo, err = topology.Line(5)
				if err == nil {
					sources = topo.Sources()
				}
			case 1:
				topo, err = topology.Grid(3, 3)
				if err == nil {
					far := topology.GridID(3, 2, 2)
					if err = topo.MarkSource(far); err == nil {
						sources = topo.Sources()
					}
				}
			default:
				topo, sources, err = topology.Figure1()
			}
			if err != nil {
				t.Fatalf("spec %d: topology: %v", i, err)
			}
			var proc traffic.Process
			switch procKind {
			case 0:
				proc = mustProc(traffic.NewPeriodic(interval))
			case 1:
				proc = mustProc(traffic.NewPoisson(1 / interval))
			default:
				// Stateful process: the adopt-new-config contract is what
				// keeps this correct across engine reuse.
				proc = mustProc(traffic.NewOnOff(1/interval, 5*interval, 3*interval))
			}
			cfg := Config{
				Topology:     topo,
				Policy:       policy,
				CustomPolicy: factory,
				Capacity:     capacity,
				Seed:         seed,
				Seal:         withSeal,
			}
			for _, s := range sources {
				cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: packets})
			}
			if policy != PolicyForward {
				cfg.Delay = mustDist(delay.NewExponential(8))
			}
			if withPerNode {
				cfg.PerNodeDelay = map[packet.NodeID]delay.Distribution{
					sources[0]: mustDist(delay.NewUniform(4)),
				}
			}
			if withRateCtl {
				cfg.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.3}
			}
			if withChannel {
				cfg.Channel = &ChannelConfig{LossP: 0.1, Burst: true, BurstLossP: 0.5}
				if withARQ {
					cfg.ARQ = &ARQConfig{MaxRetries: 3}
					cfg.Channel.AckLossP = 0.05
				}
			}
			if withFailure {
				cfg.NodeFailures = []NodeFailure{{Node: sources[0], At: float64(packets) * interval / 2}}
				cfg.RouteRepair = withRepair
			}
			return cfg
		}
		specs = append(specs, engineSpec{
			name: fmt.Sprintf("%s%02d/topo%d-policy%v%s-proc%d-ch%v-arq%v-fail%v-seal%v",
				prefix, i, topoKind, policy, mixName, procKind, withChannel, withARQ, withFailure, withSeal),
			build: build,
		})
	}
	return specs
}

// TestEngineReuseMatchesFreshRuns is the no-state-leakage property test: for
// each randomly drawn simulation shape, running seeds s, s+1, s+2 through one
// reused engine must produce byte-identical results to running each seed on
// its own fresh engine. Any run-scoped state surviving rearm — a stale
// route, a warm RNG, a dirty buffer, arena or dedup entry, a timer a
// factory-built policy armed on the scheduler — shows up as a signature
// mismatch.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	src := rng.New(20260808)
	const seeds = 3
	specs := randomEngineSpecs(t, src, 12, false)
	for _, spec := range append(specs, randomEngineSpecs(t, src, 6, true)...) {
		t.Run(spec.name, func(t *testing.T) {
			fresh := make([]string, seeds)
			for s := 0; s < seeds; s++ {
				res, err := Run(spec.build(uint64(1000 + s)))
				if err != nil {
					t.Fatalf("fresh run seed %d: %v", s, err)
				}
				fresh[s] = resultSignature(t, res)
			}
			eng, err := NewEngine(spec.build(1000))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			for s := 0; s < seeds; s++ {
				res, err := eng.Run(spec.build(uint64(1000 + s)))
				if err != nil {
					t.Fatalf("reused run seed %d: %v", s, err)
				}
				if got := resultSignature(t, res); got != fresh[s] {
					t.Fatalf("seed %d: reused engine diverged from fresh run\nfresh:  %.200s\nreused: %.200s", s, fresh[s], got)
				}
			}
			// Re-running the first seed after the others must also replay it
			// exactly (reuse is order-independent, not just append-only).
			res, err := eng.Run(spec.build(1000))
			if err != nil {
				t.Fatalf("replay run: %v", err)
			}
			if got := resultSignature(t, res); got != fresh[0] {
				t.Fatalf("replaying seed 0 after other seeds diverged")
			}
		})
	}
}

// TestRunCachedMatchesRun pins the cache path: RunCached through one shared
// cache must match plain Run for a seed sweep, and the cache must actually
// retain an engine between calls.
func TestRunCachedMatchesRun(t *testing.T) {
	cache := NewEngineCache()
	spec := randomEngineSpecs(t, rng.New(7), 1, false)[0]
	for s := 0; s < 4; s++ {
		cfg := spec.build(uint64(50 + s))
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("plain run: %v", err)
		}
		got, err := RunCached(cache, spec.build(uint64(50+s)))
		if err != nil {
			t.Fatalf("cached run: %v", err)
		}
		if resultSignature(t, got) != resultSignature(t, want) {
			t.Fatalf("seed %d: RunCached diverged from Run", s)
		}
	}
	if n := len(cache.engines); n != 1 {
		t.Fatalf("cache holds %d engines after a structurally constant sweep, want 1", n)
	}
}

// TestEngineCacheKeepsConcurrentEngines: two same-key runs in flight at
// once each check an engine out and back in. After the first round builds
// two engines, later rounds find both idle in the cache and build none —
// a cache holding one engine per key would drop one at every check-in and
// rebuild it every round.
func TestEngineCacheKeepsConcurrentEngines(t *testing.T) {
	defer budget.SetForTesting(2)()
	pool := NewEngineCache()
	builds := 0
	for round := 0; round < 4; round++ {
		var held [2]*Engine
		for i := range held {
			if held[i] = pool.checkout("k"); held[i] == nil {
				builds++
				held[i] = &Engine{}
			}
		}
		for _, e := range held {
			pool.checkin("k", e)
		}
	}
	if builds != 2 {
		t.Fatalf("%d engines built over 4 rounds of two concurrent runs, want 2 (warm-up only)", builds)
	}

	// The same through RunCached from two goroutines: every result matches
	// a plain run, and the cache never holds more than the budget.
	cache := NewEngineCache()
	spec := randomEngineSpecs(t, rng.New(7), 1, false)[0]
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < 4; s++ {
				seed := uint64(10*g + s)
				want, err := Run(spec.build(seed))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := RunCached(cache, spec.build(seed))
				if err != nil {
					t.Error(err)
					return
				}
				if resultSignature(t, got) != resultSignature(t, want) {
					t.Errorf("seed %d: RunCached diverged from Run", seed)
				}
			}
		}()
	}
	wg.Wait()
	for _, free := range cache.engines {
		if n := len(free); n < 1 || n > 2 {
			t.Fatalf("cache holds %d idle engines for a key, want 1 or 2", n)
		}
	}
}

// TestRunCachedBypasses verifies the conservative fallbacks: custom
// policies and observer attachments never enter the cache.
func TestRunCachedBypasses(t *testing.T) {
	cache := NewEngineCache()
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	proc := mustProc(traffic.NewPeriodic(2))
	cfg := Config{
		Topology: topo,
		Sources:  []Source{{Node: sources[0], Process: proc, Count: 10}},
		Policy:   PolicyRCAD,
		Delay:    mustDist(delay.NewExponential(5)),
		Seed:     1,
		Telemetry: &telemetry.Config{
			Registry: telemetry.NewRegistry(),
		},
	}
	if _, err := RunCached(cache, cfg); err != nil {
		t.Fatalf("telemetry run: %v", err)
	}
	if len(cache.engines) != 0 {
		t.Fatal("telemetry-observed run entered the engine cache")
	}
}

// TestEngineRejectsStructuralMismatch locks in the rearm compatibility
// contract: structural fields baked into the built engine cannot change
// between runs.
func TestEngineRejectsStructuralMismatch(t *testing.T) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	proc := mustProc(traffic.NewPeriodic(2))
	base := func() Config {
		return Config{
			Topology: topo,
			Sources:  []Source{{Node: sources[0], Process: proc, Count: 10}},
			Policy:   PolicyRCAD,
			Delay:    mustDist(delay.NewExponential(5)),
			Capacity: 10,
			Seed:     1,
		}
	}
	eng, err := NewEngine(base())
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"policy":       func(c *Config) { c.Policy = PolicyUnlimited },
		"capacity":     func(c *Config) { c.Capacity = 4 },
		"rate-control": func(c *Config) { c.RateControl = &RateControl{TargetLoss: 0.1, Smoothing: 0.5} },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := eng.Run(cfg); err == nil {
			t.Errorf("engine accepted a %s change across reuse", name)
		}
	}
	line, err := topology.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.Topology = line
	cfg.Sources = []Source{{Node: line.Sources()[0], Process: proc, Count: 10}}
	if _, err := eng.Run(cfg); err == nil {
		t.Error("engine accepted a topology change across reuse")
	}
	// The engine stays usable after a rejected rearm is not promised; a
	// compatible config on a fresh engine must still work.
	eng2, err := NewEngine(base())
	if err != nil {
		t.Fatal(err)
	}
	cfg = base()
	cfg.Seed = 99
	if _, err := eng2.Run(cfg); err != nil {
		t.Fatalf("compatible rearm rejected: %v", err)
	}
}

// BenchmarkEngineReuse measures the amortisation the arena-backed engine
// buys: one sweep-point-like simulation run repeatedly through a reused
// engine versus a fresh engine per run.
func BenchmarkEngineReuse(b *testing.B) {
	build := func(seed uint64) Config {
		topo, sources, err := topology.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		proc, err := traffic.NewPeriodic(2)
		if err != nil {
			b.Fatal(err)
		}
		dist, err := delay.NewExponential(8)
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Topology: topo, Policy: PolicyRCAD, Delay: dist, Seed: seed}
		for _, s := range sources {
			cfg.Sources = append(cfg.Sources, Source{Node: s, Process: proc, Count: 200})
		}
		return cfg
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(build(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		eng, err := NewEngine(build(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(build(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
