package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets its stack up from scratch;
// setup_s is their median.
const setupRounds = 9

// figures are the paper's evaluation outputs the paper-figures workload
// regenerates and compares with the committed results/.
var figures = []string{"fig2a", "fig2b", "fig3"}

// ---------------------------------------------------------------------
// paper-figures: repeated `sweep -exp fig2a,fig2b,fig3` passes.

type pass struct {
	seed      uint64 // 0 = the paper's seed
	wall, cpu float64
	rssMB     float64
	dir       string
	err       error
}

func paperFigures(ctx context.Context, b *bench) error {
	// Set-up is what a user pays before the first pass can start: loading
	// the golden tables the check needs and one start of the binary.
	var golden map[string][]byte
	var setups []float64
	for r := 0; r < 3*setupRounds; r++ {
		t0 := time.Now()
		var err error
		if golden, err = loadGolden(b.root); err != nil {
			return err
		}
		if err := exec.CommandContext(ctx, filepath.Join(b.bin, "sweep"), "-list").Run(); err != nil {
			return fmt.Errorf("sweep -list: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Passes alternate the paper's seed (checked against results/) with a
	// seed derived from the workload seed (checked against the in-process
	// fresh-engine reference), so the workload seed changes the inputs.
	derived := 2 + b.seed%100_000
	var passes []pass
	steal := startSteal()
	start := time.Now()
	for k := 0; len(passes) < 2 || time.Since(start) < b.dur; k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		p := pass{dir: filepath.Join(b.work, fmt.Sprintf("pass-%d", k))}
		if k%2 == 1 {
			p.seed = derived
		}
		args := []string{"-exp", "fig2a,fig2b,fig3", "-out", p.dir}
		if p.seed != 0 {
			args = append(args, "-seed", strconv.FormatUint(p.seed, 10))
		}
		if b.trace && k == 0 {
			args = append(args, "-cpuprofile", filepath.Join(b.work, "sweep.pprof"))
		}
		p.wall, p.cpu, p.rssMB, p.err = timeSweep(ctx, b.bin, nil, args...)
		passes = append(passes, p)
	}
	elapsed := time.Since(start).Seconds()
	b.noteSteal(steal)

	refs := map[string][]byte{}
	for _, id := range figures {
		spec := fmt.Sprintf(`{"version":1,"experiment":{"id":%q,"seed":%d}}`, id, derived)
		ref, err := reference(ctx, []byte(spec))
		if err != nil {
			return fmt.Errorf("reference %s seed %d: %w", id, derived, err)
		}
		refs[id+".txt"], refs[id+".csv"] = []byte(ref.TableText), []byte(ref.TableCSV)
	}

	var walls, samples []float64
	var cpu, rss float64
	for k, p := range passes {
		b.attempted++
		want := golden
		if p.seed != 0 {
			want = refs
		}
		if err := p.err; err != nil {
			b.fail(fmt.Sprintf("pass %d", k), err)
			continue
		}
		if err := compareOutputs(p.dir, want); err != nil {
			b.fail(fmt.Sprintf("pass %d (seed %d)", k, p.seed), err)
			continue
		}
		walls = append(walls, p.wall)
		samples = append(samples, p.wall*1000)
		cpu += p.cpu
		rss = max(rss, p.rssMB)
	}
	if len(walls) == 0 {
		return errors.New("no sweep pass succeeded")
	}
	b.setE2E("setup_s", median(setups), "s")
	b.setE2E("latency_p50_ms", median(samples), "ms")
	b.setE2E("jobs_per_s", float64(len(walls))/elapsed, "1/s")
	b.setE2E("cpu_s_per_op", cpu/float64(len(walls)), "s")
	b.setE2E("peak_rss_mb", rss, "MB")
	b.note("sweep_s                      %.4f s (median of %d passes)", median(walls), len(walls))
	b.note("latency_p90_ms               n/a unless >= 100 passes (n=%d)", len(walls))

	if !b.trace {
		return nil
	}
	var wall float64
	for _, w := range walls {
		wall += w
	}
	b.setLayer("experiment.cpu_utilization", cpu/(wall*float64(conns)), "ratio")
	b.setLayer("trace.latency_p50_ms", median(samples), "ms")
	b.setLayer("loadgen.sent", float64(len(passes)), "count")
	b.setLayer("loadgen.lag_p99_ms", 0, "ms")
	shares, err := profileShares(filepath.Join(b.work, "sweep.pprof"))
	if err != nil {
		return err
	}
	b.setShares(shares)
	b.setLayer("trace.coverage", shares.covered(), "ratio")
	noServer(b)
	noGateway(b)
	b.setLayer("jobstore.append_us", 0, "us")
	b.setLayer("jobstore.append_errors", 0, "count")
	return engineLayers(ctx, b)
}

func loadGolden(root string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, id := range figures {
		for _, ext := range []string{".txt", ".csv"} {
			data, err := os.ReadFile(filepath.Join(root, "results", id+ext))
			if err != nil {
				return nil, fmt.Errorf("golden table: %w", err)
			}
			out[id+ext] = data
		}
	}
	return out, nil
}

// compareOutputs byte-compares a pass's tables with want. Manifests and
// summary.json carry wall-clock and heap figures and are never compared.
func compareOutputs(dir string, want map[string][]byte) error {
	for name, data := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("%s differs from the reference", name)
		}
	}
	return nil
}

// timeSweep runs the sweep binary once and returns its wall time, its
// user+system CPU time and its peak RSS.
func timeSweep(ctx context.Context, bin string, env []string, args ...string) (wall, cpu, rssMB float64, err error) {
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "sweep"), args...)
	cmd.Stdout = io.Discard
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Env = append(os.Environ(), env...)
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, 0, 0, fmt.Errorf("sweep %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	wall = time.Since(t0).Seconds()
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu = tv(ru.Utime) + tv(ru.Stime)
	return wall, cpu, float64(ru.Maxrss) / 1024, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// ---------------------------------------------------------------------
// Serving stacks.

// stack is a running serving deployment: the process the clients talk to
// (temprivd, or temprivgw in front of workers) and every process whose
// CPU and memory count as the program's.
type stack struct {
	base    string
	all     []*proc
	workers []string // worker base URLs (gateway stacks only)
	gateway *proc
}

func (s *stack) cpu() (float64, error) {
	var t float64
	for _, p := range s.all {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// rssMB is the stack's footprint: the sum of its processes' peak RSS.
func (s *stack) rssMB() (float64, error) {
	var t float64
	for _, p := range s.all {
		m, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		t += m
	}
	return t, nil
}

func (s *stack) stop() {
	for _, p := range s.all {
		p.stop()
	}
}

// startDaemon starts one temprivd with the storage flags only; every
// parallelism knob stays at its default.
func (b *bench) startDaemon(ctx context.Context, c *http.Client, name, dir string, extra ...string) (*proc, string, error) {
	port, err := freePort()
	if err != nil {
		return nil, "", err
	}
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-cache", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal"),
		"-log-level", "warn",
	}, extra...)
	p, err := b.procs.start(name, filepath.Join(b.bin, "temprivd"), dir, args...)
	if err != nil {
		return nil, "", err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	return p, base, waitReady(ctx, c, base+"/readyz", p, nil)
}

// soloStack starts one temprivd with a result cache, a journal and a chunk
// directory.
func (b *bench) soloStack(ctx context.Context, c *http.Client, round int) (*stack, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("solo-%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, base, err := b.startDaemon(ctx, c, fmt.Sprintf("temprivd-%d", round), dir, "-chunks", filepath.Join(dir, "chunks"))
	if err != nil {
		return nil, err
	}
	return &stack{base: base, all: []*proc{p}}, nil
}

// clusterStack starts temprivgw and two temprivd workers that share a
// chunk directory, and waits until both workers are registered.
func (b *bench) clusterStack(ctx context.Context, c *http.Client, round int) (*stack, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("cluster-%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	gw, err := b.procs.start(fmt.Sprintf("temprivgw-%d", round), filepath.Join(b.bin, "temprivgw"), dir,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-level", "warn")
	if err != nil {
		return nil, err
	}
	s := &stack{base: fmt.Sprintf("http://127.0.0.1:%d", port), all: []*proc{gw}, gateway: gw}
	if err := waitReady(ctx, c, s.base+"/healthz", gw, nil); err != nil {
		return s, err
	}
	for _, id := range []string{"w1", "w2"} {
		wdir := filepath.Join(dir, id)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return s, err
		}
		p, base, err := b.startDaemon(ctx, c, fmt.Sprintf("%s-%d", id, round), wdir,
			"-chunks", filepath.Join(dir, "chunks"),
			"-cluster-registry", s.base, "-cluster-id", id)
		if p != nil {
			s.all = append(s.all, p)
		}
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, base)
	}
	err = waitReady(ctx, c, s.base+"/v1/cluster", gw, func(body []byte) bool {
		var view struct {
			Workers []json.RawMessage `json:"workers"`
		}
		return json.Unmarshal(body, &view) == nil && len(view.Workers) == 2
	})
	return s, err
}

// setUp builds a stack setupRounds times, each time from empty
// directories and up to the first timed operation (including filling the
// warm set, when there is one), and keeps the last. setup_s is the median.
func (b *bench) setUp(ctx context.Context, c *http.Client, build func(context.Context, *http.Client, int) (*stack, error), warm [][]byte) (*stack, error) {
	var times []float64
	var s *stack
	for r := 0; r < setupRounds; r++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = build(ctx, c, r); err != nil {
			return nil, fmt.Errorf("setting up: %w", err)
		}
		for i, spec := range warm {
			if _, err := runJob(ctx, c, s.base, spec); err != nil {
				return nil, fmt.Errorf("filling warm spec %d: %w", i, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.setE2E("setup_s", median(times), "s")
	return s, nil
}

// op is one timed client operation and what it returned.
type op struct {
	spec []byte
	res  jobResult
	s    sample
}

// measure runs the timed phase and returns the CPU the stack spent
// meanwhile.
func (b *bench) measure(s *stack, run func()) (cpu float64, err error) {
	c0, err := s.cpu()
	if err != nil {
		return 0, err
	}
	steal := startSteal()
	run()
	b.noteSteal(steal)
	c1, err := s.cpu()
	return c1 - c0, err
}

// check compares every operation's body with its spec's reference, and
// turns a mismatch into a failed operation.
func (b *bench) check(ctx context.Context, ops []*op) error {
	specs := make([][]byte, 0, len(ops))
	for _, o := range ops {
		if o.s.Err == nil {
			specs = append(specs, o.spec)
		}
	}
	refs, err := references(ctx, specs)
	if err != nil {
		return err
	}
	for i, o := range ops {
		b.attempted++
		if o.s.Err == nil {
			if err := sameResult(o.res.Body, refs[string(o.spec)]); err != nil {
				o.s.Err = fmt.Errorf("result of %s: %w", o.spec, err)
			}
		}
		if o.s.Err != nil {
			b.fail(fmt.Sprintf("operation %d", i), o.s.Err)
		}
	}
	return nil
}

func samplesOf(ops []*op) []sample {
	out := make([]sample, len(ops))
	for i, o := range ops {
		out[i] = o.s
	}
	return out
}

// runOps drives a closed loop of conns clients until the deadline; spec(i)
// is operation i's input, client k issuing operations k, k+conns, …
func runOps(ctx context.Context, c *http.Client, base string, until time.Time, spec func(i int) []byte) []*op {
	var mu sync.Mutex
	var ops []*op
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; ctx.Err() == nil && time.Now().Before(until); i += conns {
				o := &op{spec: spec(i)}
				o.s.Start = time.Now()
				o.s.Due = o.s.Start
				o.res, o.s.Err = runJob(ctx, c, base, o.spec)
				o.s.End = time.Now()
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	return ops
}

// setServingE2E sets the closed-loop end-to-end metrics from checked ops.
func (b *bench) setServingE2E(s *stack, ops []*op, cpu float64) error {
	samples := samplesOf(ops)
	ok := len(samples) - failures(samples)
	if ok == 0 {
		return errors.New("no operation succeeded")
	}
	p50, _ := percentile(samples, 0.5)
	rss, err := s.rssMB()
	if err != nil {
		return err
	}
	b.setE2E("latency_p50_ms", ms(p50), "ms")
	b.setE2E("jobs_per_s", throughput(samples), "1/s")
	b.setE2E("cpu_s_per_op", cpu/float64(ok), "s")
	b.setE2E("peak_rss_mb", rss, "MB")
	for _, p := range []float64{0.9, 0.99} {
		b.note("%s", latencyLine(fmt.Sprintf("latency_p%g_ms", p*100), samples, p))
	}
	return nil
}

// extent returns the first start and the last end among the samples.
func extent(samples []sample) (first, last time.Time) {
	first, last = samples[0].Start, samples[0].End
	for _, x := range samples {
		if x.Start.Before(first) {
			first = x.Start
		}
		if x.End.After(last) {
			last = x.End
		}
	}
	return first, last
}

// ---------------------------------------------------------------------
// serve-fresh: never-repeating specs, closed loop, one temprivd.

func serveFresh(ctx context.Context, b *bench) error {
	c := newHTTPClient(conns + 1)
	s, err := b.setUp(ctx, c, b.soloStack, nil)
	if err != nil {
		return err
	}
	stream := newSpecStream(freshDeck(), b.seed, 1)
	before, err := scrapeAll(ctx, c, s)
	if err != nil {
		return err
	}
	prof := b.profileDuring(ctx, c, s.base)
	var ops []*op
	cpu, err := b.measure(s, func() {
		ops = runOps(ctx, c, s.base, time.Now().Add(b.dur), stream.at)
	})
	if err != nil {
		return err
	}
	spans, err := b.spansIfTraced(ctx, c, s, ops)
	if err != nil {
		return err
	}
	if err := b.check(ctx, ops); err != nil {
		return err
	}
	if err := b.setServingE2E(s, ops, cpu); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	return b.servingLayers(ctx, c, s, ops, cpu, before, prof, spans)
}

// ---------------------------------------------------------------------
// serve-hit: a warm set resubmitted, closed loop then fixed open-loop
// rates, one temprivd.

// hitRates are serve-hit's fixed open-loop rates (requests/s). They
// straddle the closed-loop capacity of one temprivd with two client
// connections on the 2-CPU reference machine, about 2000/s (see NOTES.md).
var hitRates = map[string]float64{"low": 1000, "mid": 1600, "high": 2400}

// sloLimit is temprivd's own cached_result objective threshold.
const sloLimit = 50 * time.Millisecond

func serveHit(ctx context.Context, b *bench) error {
	c := newHTTPClient(conns + 1)
	warm := warmSet(16, b.seed)
	s, err := b.setUp(ctx, c, b.soloStack, warm)
	if err != nil {
		return err
	}
	order := newOrder(len(warm), int64(b.seed)).at
	before, err := scrapeAll(ctx, c, s)
	if err != nil {
		return err
	}
	prof := b.profileDuring(ctx, c, s.base)

	// Closed loop for capacity and per-operation cost.
	var ops []*op
	closedDur := b.dur * 2 / 5
	cpu, err := b.measure(s, func() {
		ops = runOps(ctx, c, s.base, time.Now().Add(closedDur), func(i int) []byte { return warm[order(i)] })
	})
	if err != nil {
		return err
	}
	spans, err := b.spansIfTraced(ctx, c, s, ops)
	if err != nil {
		return err
	}
	// Open loop at each fixed rate, timed from when each request was due.
	phase := (b.dur - closedDur) / time.Duration(len(hitRates))
	var open []*op
	maxRate := 0.0
	var lags []sample
	for _, name := range []string{"low", "mid", "high"} {
		rate := hitRates[name]
		phaseOps := make([]*op, int(phase/time.Duration(float64(time.Second)/rate)))
		samples := openLoop(ctx, conns, rate, time.Now(), phase, func(ctx context.Context, i int) error {
			o := &op{spec: warm[order(i)]}
			phaseOps[i] = o
			var err error
			o.res, err = runJob(ctx, c, s.base, o.spec)
			return err
		})
		if samples == nil {
			return ctx.Err()
		}
		for i, o := range phaseOps {
			o.s = samples[i]
		}
		if name == "low" {
			lags = samples
		}
		b.note("%s", latencyLine(fmt.Sprintf("latency_p99_ms.%s (%g/s)", name, rate), samples, 0.99))
		if meetsLimit(samples, 0.99, sloLimit) && !growingBacklog(samples) {
			maxRate = max(maxRate, rate)
		}
		open = append(open, phaseOps...)
	}
	b.note("max_rate_rps                 %g (highest fixed rate with p99 <= %v and no growing backlog; 0 = none)", maxRate, sloLimit)

	if err := b.check(ctx, append(append([]*op(nil), ops...), open...)); err != nil {
		return err
	}
	if err := b.setServingE2E(s, ops, cpu); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	if err := b.servingLayers(ctx, c, s, ops, cpu, before, prof, spans); err != nil {
		return err
	}
	lag := make([]sample, len(lags))
	for i, x := range lags {
		lag[i] = sample{Due: x.Due, End: x.Start}
	}
	d, _ := percentile(lag, 0.99)
	b.setLayer("loadgen.lag_p99_ms", ms(d), "ms")
	b.setLayer("loadgen.sent", float64(len(ops)+len(open)), "count")
	return nil
}

// growingBacklog says whether the generator fell further behind schedule
// over the phase: the last tenth of requests started more than the latency
// limit later, relative to their due times, than the first tenth.
func growingBacklog(samples []sample) bool {
	n := len(samples) / 10
	if n == 0 {
		return true
	}
	var head, tail time.Duration
	for i := 0; i < n; i++ {
		head += samples[i].lag()
		tail += samples[len(samples)-1-i].lag()
	}
	return (tail-head)/time.Duration(n) > sloLimit
}

// ---------------------------------------------------------------------
// gateway-mix: temprivgw fronting two workers; one request in four is a
// fresh small spec, the rest repeat a warm set.

func gatewayMix(ctx context.Context, b *bench) error {
	c := newHTTPClient(conns + 1)
	warm := warmSet(8, b.seed)
	s, err := b.setUp(ctx, c, b.clusterStack, warm)
	if err != nil {
		return err
	}
	small := freshDeck()[:8] // packets 100–250, every replicate count
	stream := newSpecStream(small, b.seed, 2)
	order := newOrder(len(warm), int64(b.seed)).at
	var fresh atomic.Int64
	spec := func(i int) []byte {
		if mixFresh(b.seed, i) {
			fresh.Add(1)
			return stream.at(i)
		}
		return warm[order(i)]
	}
	before, err := scrapeAll(ctx, c, s)
	if err != nil {
		return err
	}
	prof := b.profileDuring(ctx, c, s.workers[0])
	var ops []*op
	cpu, err := b.measure(s, func() {
		ops = runOps(ctx, c, s.base, time.Now().Add(b.dur), spec)
	})
	if err != nil {
		return err
	}
	spans, err := b.spansIfTraced(ctx, c, s, ops)
	if err != nil {
		return err
	}
	if err := b.check(ctx, ops); err != nil {
		return err
	}
	if err := b.setServingE2E(s, ops, cpu); err != nil {
		return err
	}
	b.note("fresh share                  %d of %d requests", fresh.Load(), len(ops))
	if !b.trace {
		return nil
	}
	return b.servingLayers(ctx, c, s, ops, cpu, before, prof, spans)
}

func (b *bench) spansIfTraced(ctx context.Context, c *http.Client, s *stack, ops []*op) (*spanStats, error) {
	if !b.trace {
		return nil, nil
	}
	return readSpans(ctx, c, s, ops)
}

// mixFresh decides, from the seed alone, whether gateway-mix request i is
// a fresh spec: exactly one request in each block of four, at a seeded
// position, so every run has the same fresh share.
func mixFresh(seed uint64, i int) bool {
	x := seed*0x9E3779B97F4A7C15 + uint64(i/4)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int(x%4) == i%4
}
