package main

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer than ten makes the "percentile" one or two outliers.
const minBeyond = 10

// sample is one timed operation. Latency runs from Due (when the operation
// was scheduled; equal to Start in a closed loop) to End. A failed
// operation keeps its timing but counts as infinitely slow, so it misses
// every latency limit.
type sample struct {
	Due, Start, End time.Time
	Err             error
}

func (s sample) latency() time.Duration {
	if s.Err != nil {
		return time.Duration(math.MaxInt64)
	}
	return s.End.Sub(s.Due)
}

// lag is how late the generator started the operation.
func (s sample) lag() time.Duration { return s.Start.Sub(s.Due) }

// reportable says whether percentile p (0 < p < 1) of n samples has at
// least minBeyond samples above it.
func reportable(n int, p float64) bool {
	return n-rank(n, p) >= minBeyond
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of the latencies, with
// failed samples sorted last as +Inf. ok is false when the samples do not
// support the percentile under the minBeyond rule (the median is always
// reported).
func percentile(samples []sample, p float64) (d time.Duration, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.latency()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	d = lat[rank(len(lat), p)-1]
	return d, p <= 0.5 || reportable(len(lat), p)
}

// meetsLimit says whether the p-th percentile latency is within limit. A
// percentile the samples cannot support never meets a limit, and failed
// samples are infinitely slow.
func meetsLimit(samples []sample, p float64, limit time.Duration) bool {
	d, ok := percentile(samples, p)
	return ok && d <= limit
}

func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.Err != nil {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float slice (mean of the middle pair for even lengths).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// throughput is successful completions per second of a closed loop, from
// its first start to its last completion.
func throughput(samples []sample) float64 {
	first, last := extent(samples)
	return float64(len(samples)-failures(samples)) / last.Sub(first).Seconds()
}

// openLoop issues op at a fixed rate from t0 for the given duration using
// at most conns concurrent operations. Operation i is due at t0 + i/rate
// whether or not an earlier one has finished; its latency counts from that
// due time, so a stall shows up in every request queued behind it, and
// sample.lag records how late the generator actually started it. The
// result is indexed by i.
func openLoop(ctx context.Context, conns int, rate float64, t0 time.Time, dur time.Duration, op func(ctx context.Context, i int) error) []sample {
	period := time.Duration(float64(time.Second) / rate)
	out := make([]sample, int(dur/period))
	var next atomic.Int64
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(out) {
					return
				}
				due := t0.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				start := time.Now()
				err := op(ctx, i)
				out[i] = sample{Due: due, Start: start, End: time.Now(), Err: err}
				issued.Add(1)
			}
		}()
	}
	wg.Wait()
	if int(issued.Load()) < len(out) {
		// Canceled part-way: the caller's context error ends the run.
		return nil
	}
	return out
}

// latencyLine renders a percentile for the human-readable report, or says
// why it is withheld.
func latencyLine(name string, samples []sample, p float64) string {
	d, ok := percentile(samples, p)
	if !ok {
		return fmt.Sprintf("%-28s n/a (n=%d; p%g needs %d samples above it)", name, len(samples), p*100, minBeyond)
	}
	if d == time.Duration(math.MaxInt64) {
		return fmt.Sprintf("%-28s inf ms (n=%d; failures reach this percentile)", name, len(samples))
	}
	return fmt.Sprintf("%-28s %.3f ms (n=%d)", name, ms(d), len(samples))
}
