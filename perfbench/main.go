// Command perfbench is the repository's benchmark: one workload per run,
// driven by a workload seed, against the sweep, temprivd and temprivgw
// binaries built from the same checkout. It prints a human-readable report
// and, as its last line, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binaries and this program inside the checkout, then
// runs it; see perfbench/NOTES.md for what each workload and metric means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// conns is the load generator's concurrency: one connection per CPU of
// the 2-CPU machine the benchmark was sized on.
const conns = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's environment and its accumulating report.
type bench struct {
	root, bin, work string
	seed            uint64
	dur             time.Duration
	trace           bool
	procs           procs

	attempted, failed int
	mismatches        []string
	e2e, layer        map[string]metric
	stealShare        float64
}

// fail records a failed operation, naming the first few.
func (b *bench) fail(what string, err error) {
	b.failed++
	if len(b.mismatches) < 8 {
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: %v", what, err))
	}
}

func (b *bench) setE2E(name string, v float64, unit string)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

func (b *bench) note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// noteSteal reports the hypervisor's steal over the timed phase that
// started with m.
func (b *bench) noteSteal(m stealMeter) {
	b.stealShare = m.share()
	b.note("host steal                   %.1f%% of machine CPU time during the timed phase", 100*b.stealShare)
}

var workloads = map[string]func(context.Context, *bench) error{
	"paper-figures": paperFigures,
	"serve-fresh":   serveFresh,
	"serve-hit":     serveHit,
	"gateway-mix":   gatewayMix,
}

// e2eNames and layerNames are the metrics every run must print, in the
// order BENCHMARK.json declares them.
var e2eNames = []string{"setup_s", "latency_p50_ms", "jobs_per_s", "cpu_s_per_op", "peak_rss_mb"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: paper-figures | serve-fresh | serve-hit | gateway-mix")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long the timed phase runs")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics instead of end-to-end ones")
		root     = flag.String("root", ".", "checkout root (holds results/)")
		bin      = flag.String("bin", "", "directory holding the sweep, temprivd and temprivgw binaries")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-bin is required, -seconds must be positive and -trace 0 or 1")
	}
	for _, name := range []string{"sweep", "temprivd", "temprivgw"} {
		if _, err := os.Stat(filepath.Join(*bin, name)); err != nil {
			return fmt.Errorf("missing program binary: %w", err)
		}
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{
		root: absRoot, bin: *bin, work: work, seed: *seed,
		dur:   time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
		e2e:   map[string]metric{}, layer: map[string]metric{},
	}
	// The whole run must end within 180 s; leave room for the reference
	// checks after the timed phase.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	defer b.procs.stopAll()

	b.note("perfbench: workload=%s seed=%d seconds=%g trace=%d", *workload, *seed, *seconds, *trace)
	if err := fn(ctx, b); err != nil {
		return err
	}
	b.procs.stopAll()
	return b.emit()
}

// emit prints the failures and the final JSON line. It refuses to print a
// result with a missing or malformed metric.
func (b *bench) emit() error {
	for _, m := range b.mismatches {
		fmt.Println("FAILED", m)
	}
	want, got := e2eNames, b.e2e
	if b.trace {
		b.setLayer("loadgen.steal_share", b.stealShare, "ratio")
		want, got = layerNames, b.layer
	}
	out := output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if !metricName.MatchString(name) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has a bad name or value %v", name, m.Value)
		}
		out.Metrics[name] = m
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(line)))
	return nil
}
