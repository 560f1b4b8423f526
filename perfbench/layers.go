package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tempriv/internal/adversary"
	"tempriv/internal/delay"
	"tempriv/internal/jobs"
	"tempriv/internal/jobstore"
	"tempriv/internal/network"
	"tempriv/internal/report"
	"tempriv/internal/scenario"
	"tempriv/internal/topology"
	"tempriv/internal/traffic"
)

// layerNames are the per-layer metrics of a traced run, in the order
// BENCHMARK.json declares them. A layer that the workload does not pass
// through reports 0: that is its contribution there.
var layerNames = []string{
	"sim.events", "sim.ns_per_event", "sim.cpu_share",
	"buffer.preemptions", "buffer.preempt_ratio", "buffer.cpu_share",
	"network.runs", "network.run_s", "network.allocs_per_run", "network.cpu_share",
	"runtime.gc_cpu_share", "runtime.heap_alloc_mb",
	"adversary.observations", "adversary.score_s", "adversary.cpu_share",
	"experiment.cpu_utilization", "experiment.scaling_2cpu",
	"report.render_ms",
	"server.ingress_ms", "jobs.queue_wait_ms", "jobs.attempts_per_job", "server.sheds", "server.poll_useful_ratio",
	"resultcache.get_ms", "resultcache.put_ms", "resultcache.hit_ratio",
	"resultstream.chunk_ms", "resultstream.chunks_written",
	"jobstore.append_us", "jobstore.append_errors",
	"gateway.overhead_ms", "gateway.routes_per_request", "gateway.sheds", "gateway.hedged_reads",
	"ring.owner_ratio", "peering.replicated", "peering.replicate_errors",
	"loadgen.lag_p99_ms", "loadgen.sent", "loadgen.steal_share",
	"trace.coverage", "trace.latency_p50_ms",
}

func (b *bench) setShares(s shares) {
	for _, layer := range []string{"sim", "buffer", "network", "adversary"} {
		b.setLayer(layer+".cpu_share", s[layer], "ratio")
	}
	b.setLayer("runtime.gc_cpu_share", s["gc"], "ratio")
}

// noServer and noGateway report the serving layers a workload bypasses.
func noServer(b *bench) {
	for _, n := range []string{"server.ingress_ms", "jobs.queue_wait_ms", "resultcache.get_ms", "resultcache.put_ms", "resultstream.chunk_ms"} {
		b.setLayer(n, 0, "ms")
	}
	for _, n := range []string{"jobs.attempts_per_job", "server.poll_useful_ratio", "resultcache.hit_ratio"} {
		b.setLayer(n, 0, "ratio")
	}
	b.setLayer("server.sheds", 0, "count")
	b.setLayer("resultstream.chunks_written", 0, "count")
}

func noGateway(b *bench) {
	b.setLayer("gateway.overhead_ms", 0, "ms")
	b.setLayer("gateway.routes_per_request", 0, "ratio")
	b.setLayer("ring.owner_ratio", 0, "ratio")
	for _, n := range []string{"gateway.sheds", "gateway.hedged_reads", "peering.replicated", "peering.replicate_errors"} {
		b.setLayer(n, 0, "count")
	}
}

// ---------------------------------------------------------------------
// Engine layers, measured in-process around the layers' public calls.

// figure1Policies are the paper's three Figure-1 buffering cases.
var figure1Policies = []network.PolicyKind{network.PolicyForward, network.PolicyUnlimited, network.PolicyRCAD}

// engineLayers times network.NewEngine and Engine.Run on the Figure-1
// configurations at paper size (1000 packets, 1/µ = 30, k = 10, τ = 1), the
// baseline adversary's ScorePerFlow on every RCAD run, report.Table.Render
// on a Figure-2(a)-shaped table, and one fig2a sweep at GOMAXPROCS=1
// against the default for the CPU budget's scaling.
func engineLayers(ctx context.Context, b *bench) error {
	var (
		runs, events, preempts, arrivals, observations uint64
		buildRun, runOnly, score                       time.Duration
		mallocs, allocBytes                            uint64
	)
	var m0, m1 runtime.MemStats
	for round := 0; round < 2; round++ {
		for _, policy := range figure1Policies {
			for _, ia := range []float64{2, 10, 20} {
				cfg, err := figure1Config(policy, ia)
				if err != nil {
					return err
				}
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				e, err := network.NewEngine(cfg)
				if err != nil {
					return err
				}
				t1 := time.Now()
				res, err := e.Run(cfg)
				if err != nil {
					return err
				}
				t2 := time.Now()
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				allocBytes += m1.TotalAlloc - m0.TotalAlloc
				runs++
				events += res.Events
				buildRun += t2.Sub(t0)
				runOnly += t2.Sub(t1)
				for _, ns := range res.Nodes {
					preempts += ns.Preemptions
					arrivals += ns.Arrivals
				}
				if policy != network.PolicyRCAD {
					continue
				}
				est, err := adversary.NewBaseline(1, 30)
				if err != nil {
					return err
				}
				obs, truths := res.Observations(), res.Truths()
				t3 := time.Now()
				if _, err := adversary.ScorePerFlow(est, obs, truths); err != nil {
					return err
				}
				score += time.Since(t3)
				observations += uint64(len(obs))
			}
		}
	}
	b.setLayer("sim.events", float64(events), "count")
	b.setLayer("sim.ns_per_event", float64(runOnly.Nanoseconds())/float64(events), "ns")
	b.setLayer("buffer.preemptions", float64(preempts), "count")
	b.setLayer("buffer.preempt_ratio", float64(preempts)/float64(arrivals), "ratio")
	b.setLayer("network.runs", float64(runs), "count")
	b.setLayer("network.run_s", buildRun.Seconds()/float64(runs), "s")
	b.setLayer("network.allocs_per_run", float64(mallocs)/float64(runs), "count")
	b.setLayer("runtime.heap_alloc_mb", float64(allocBytes)/float64(runs)/(1<<20), "MB")
	b.setLayer("adversary.observations", float64(observations), "count")
	b.setLayer("adversary.score_s", score.Seconds(), "s")

	t := &report.Table{Title: "Figure 2(a)", RowHeader: "1/λ", Columns: []string{"NoDelay", "Delay&UnlimitedBuffers", "Delay&LimitedBuffers(RCAD)"}}
	for ia := 2; ia <= 20; ia += 2 {
		t.AddRow(strconv.Itoa(ia), 0, 13000+float64(ia), 90000/float64(ia))
	}
	var renders []float64
	for i := 0; i < 300; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := t.Render(&buf); err != nil {
			return err
		}
		renders = append(renders, ms(time.Since(t0)))
	}
	b.setLayer("report.render_ms", median(renders), "ms")

	one, _, _, err := timeSweep(ctx, b.bin, []string{"GOMAXPROCS=1"}, "-exp", "fig2a")
	if err != nil {
		return err
	}
	all, _, _, err := timeSweep(ctx, b.bin, nil, "-exp", "fig2a")
	if err != nil {
		return err
	}
	b.setLayer("experiment.scaling_2cpu", one/all, "ratio")
	return nil
}

func figure1Config(policy network.PolicyKind, ia float64) (network.Config, error) {
	topo, sources, err := topology.Figure1()
	if err != nil {
		return network.Config{}, err
	}
	proc, err := traffic.NewPeriodic(ia)
	if err != nil {
		return network.Config{}, err
	}
	var dist delay.Distribution
	if policy != network.PolicyForward {
		if dist, err = delay.NewExponential(30); err != nil {
			return network.Config{}, err
		}
	}
	srcs := make([]network.Source, len(sources))
	for i, s := range sources {
		srcs[i] = network.Source{Node: s, Process: proc, Count: 1000}
	}
	return network.Config{Topology: topo, Sources: srcs, Policy: policy, Delay: dist, Capacity: 10, TransmissionDelay: 1, Seed: 1}, nil
}

// journalLayer replays the workload's journal record sequence (submit,
// running, one chunk per replicate of a fresh job, done) through the
// jobstore append API and returns the median time per append.
func journalLayer(b *bench, ops []*op) error {
	j, err := jobstore.Open(filepath.Join(b.work, "journal-replay"), jobstore.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	var times []float64
	timed := func(f func()) {
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0).Microseconds()))
	}
	for i, o := range ops {
		if i == 100 {
			break
		}
		sp, err := scenario.Parse(o.spec)
		if err != nil {
			return err
		}
		fp, err := sp.Fingerprint()
		if err != nil {
			return err
		}
		id := fmt.Sprintf("job-%06d", i+1)
		now := time.Now()
		timed(func() { j.Submitted(id, fp, sp, "", now) })
		timed(func() { j.Transition(id, jobs.StateRunning, 1, false, "", now) })
		if !o.res.CacheHit {
			for r := 1; r <= sp.Replicates(); r++ {
				timed(func() { j.Chunk(id, r, now) })
			}
		}
		timed(func() { j.Transition(id, jobs.StateDone, 1, o.res.CacheHit, "", now) })
	}
	b.setLayer("jobstore.append_us", median(times), "us")
	return nil
}

// ---------------------------------------------------------------------
// Serving layers, read from the program's span trees and /metrics.

// counters is one /metrics scrape, keyed by name without the tempriv_ or
// temprivd_ prefix so that a metric keeps its key across a prefix rename.
type counters map[string]float64

func scrape(ctx context.Context, c *http.Client, base string) (counters, error) {
	status, body, err := get(ctx, c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: HTTP %d", base, status)
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(strings.TrimPrefix(f[0], "temprivd_"), "tempriv_")
		// A deprecated alias and its new name count the same events once.
		out[name] = max(out[name], v)
	}
	return out, sc.Err()
}

// scrapes holds the gateway's counters (nil without a gateway) and the
// workers' counters summed.
type scrapes struct{ gw, workers counters }

func scrapeAll(ctx context.Context, c *http.Client, s *stack) (scrapes, error) {
	var out scrapes
	bases := s.workers
	if s.gateway != nil {
		var err error
		if out.gw, err = scrape(ctx, c, s.base); err != nil {
			return out, err
		}
	} else {
		bases = []string{s.base}
	}
	out.workers = counters{}
	for _, base := range bases {
		w, err := scrape(ctx, c, base)
		if err != nil {
			return out, err
		}
		for k, v := range w {
			out.workers[k] += v
		}
	}
	return out, nil
}

// profile is a CPU profile being taken from a running server.
type profile struct {
	done chan struct{}
	s    shares
	err  error
}

// profileDuring starts a CPU profile of the server at base covering most
// of the timed phase; only traced runs take one.
func (b *bench) profileDuring(ctx context.Context, c *http.Client, base string) *profile {
	if !b.trace {
		return nil
	}
	p := &profile{done: make(chan struct{})}
	secs := max(1, int(b.dur.Seconds()*0.8))
	go func() {
		defer close(p.done)
		status, body, err := get(ctx, c, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("profile: HTTP %d", status)
		}
		if err == nil {
			p.s, err = decodeShares(bytes.NewReader(body))
		}
		p.err = err
	}()
	return p
}

type span struct {
	Name       string            `json:"name"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs"`
	Children   []span            `json:"children"`
}

func (s span) walk(fn func(span)) {
	fn(s)
	for _, c := range s.Children {
		c.walk(fn)
	}
}

// tracedJobs is how many of a run's last jobs have their span trees read:
// well inside temprivd's default flight-recorder capacity of 512.
const tracedJobs = 200

// spanStats summarises the span trees of a run's last jobs.
type spanStats struct {
	ingress, queue, gets, puts, chunk, overhead []float64
	attempts, jobs                              int
	covered, client                             float64
}

// readSpans reads the span trees of the last tracedJobs operations. It
// runs right after the timed loop, before later jobs evict them from the
// flight recorder. Through the gateway the tree is the owning worker's.
func readSpans(ctx context.Context, c *http.Client, s *stack, ops []*op) (*spanStats, error) {
	workerURL := map[string]string{}
	if s.gateway != nil {
		_, body, err := get(ctx, c, s.base+"/v1/cluster")
		if err != nil {
			return nil, err
		}
		var view struct {
			Workers []struct{ ID, URL string } `json:"workers"`
		}
		if err := json.Unmarshal(body, &view); err != nil {
			return nil, err
		}
		for _, w := range view.Workers {
			workerURL[w.ID] = w.URL
		}
	}
	st := &spanStats{}
	for i := max(0, len(ops)-tracedJobs); i < len(ops); i++ {
		o := ops[i]
		if o.s.Err != nil {
			continue
		}
		url := s.base + "/v1/traces/" + o.res.JobID
		if s.gateway != nil {
			url = workerURL[o.res.Worker] + "/v1/traces/" + o.res.WorkerJob
		}
		status, body, err := get(ctx, c, url)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			continue // evicted from the flight recorder
		}
		var tree struct {
			Root span `json:"root"`
		}
		if err := json.Unmarshal(body, &tree); err != nil {
			return nil, fmt.Errorf("span tree: %w", err)
		}
		st.jobs++
		root := ms(time.Duration(tree.Root.DurationNS))
		client := ms(o.s.latency())
		st.covered += root
		st.client += client
		st.overhead = append(st.overhead, client-root)
		tree.Root.walk(func(sp span) {
			d := ms(time.Duration(sp.DurationNS))
			switch sp.Name {
			case "ingress":
				st.ingress = append(st.ingress, d)
			case "queue":
				st.queue = append(st.queue, d)
			case "attempt":
				st.attempts++
			case "chunk":
				st.chunk = append(st.chunk, d)
			case "cache":
				if sp.Attrs["op"] == "put" {
					st.puts = append(st.puts, d)
				} else {
					st.gets = append(st.gets, d)
				}
			}
		})
	}
	if st.jobs == 0 {
		return nil, fmt.Errorf("no span tree of the last %d jobs was retained", tracedJobs)
	}
	return st, nil
}

// servingLayers fills the per-layer metrics of a serving workload from
// the span trees of its last jobs, the /metrics deltas over the run, the
// server's CPU profile and the client's own counts.
func (b *bench) servingLayers(ctx context.Context, c *http.Client, s *stack, ops []*op, cpu float64, before scrapes, prof *profile, st *spanStats) error {
	after, err := scrapeAll(ctx, c, s)
	if err != nil {
		return err
	}
	var polls, useful int
	for _, o := range ops {
		polls += o.res.Polls
		useful += o.res.Terminal
	}
	delta := func(n string) float64 { return after.workers[n] - before.workers[n] }
	hits, misses := delta("cache_hits_total"), delta("cache_misses_total")

	b.setLayer("server.ingress_ms", median(st.ingress), "ms")
	b.setLayer("jobs.queue_wait_ms", median(st.queue), "ms")
	b.setLayer("jobs.attempts_per_job", float64(st.attempts)/float64(st.jobs), "ratio")
	b.setLayer("server.sheds", delta("sheds_total"), "count")
	b.setLayer("server.poll_useful_ratio", float64(useful)/float64(max(polls, 1)), "ratio")
	b.setLayer("resultcache.get_ms", median(st.gets), "ms")
	b.setLayer("resultcache.put_ms", median(st.puts), "ms")
	b.setLayer("resultcache.hit_ratio", hits/max(hits+misses, 1), "ratio")
	b.setLayer("resultstream.chunk_ms", median(st.chunk), "ms")
	b.setLayer("resultstream.chunks_written", delta("chunks_written_total"), "count")
	b.setLayer("jobstore.append_errors", delta("journal_append_errors_total"), "count")
	b.setLayer("trace.coverage", st.covered/st.client, "ratio")

	samples := samplesOf(ops)
	p50, _ := percentile(samples, 0.5)
	b.setLayer("trace.latency_p50_ms", ms(p50), "ms")
	b.setLayer("loadgen.sent", float64(len(ops)), "count")
	b.setLayer("loadgen.lag_p99_ms", 0, "ms")
	first, last := extent(samples)
	b.setLayer("experiment.cpu_utilization", cpu/(last.Sub(first).Seconds()*float64(conns)), "ratio")

	if s.gateway != nil {
		gw := func(n string) float64 { return after.gw[n] - before.gw[n] }
		dispatched := gw("cluster_dispatch_total")
		b.setLayer("gateway.overhead_ms", median(st.overhead), "ms")
		b.setLayer("gateway.routes_per_request", after.gw["cluster_routes"]/max(after.gw["cluster_dispatch_total"], 1), "ratio")
		b.setLayer("gateway.sheds", gw("sheds_total"), "count")
		b.setLayer("gateway.hedged_reads", gw("cluster_hedged_reads_total"), "count")
		b.setLayer("ring.owner_ratio", 1-delta("cluster_misdirected_total")/max(dispatched, 1), "ratio")
		b.setLayer("peering.replicated", delta("cluster_peer_replicated_total"), "count")
		b.setLayer("peering.replicate_errors", delta("cluster_peer_replicate_errors_total"), "count")
	} else {
		noGateway(b)
	}

	if prof != nil {
		<-prof.done
		if prof.err != nil {
			return prof.err
		}
		b.setShares(prof.s)
	}
	if err := journalLayer(b, ops); err != nil {
		return err
	}
	return engineLayers(ctx, b)
}
