package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

func TestMetricNamesMatchDeclarationAndPattern(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", e2eNames, e2e}, {"per_layer", layerNames, layer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: harness prints %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
		}
		seen := map[string]bool{}
		for i, name := range c.got {
			if name != c.want[i] {
				t.Errorf("%s[%d]: harness %q, BENCHMARK.json %q", c.what, i, name, c.want[i])
			}
			if !metricName.MatchString(name) {
				t.Errorf("%s: %q does not match [A-Za-z0-9_.-]+", c.what, name)
			}
			if seen[name] {
				t.Errorf("%s: %q used twice", c.what, name)
			}
			seen[name] = true
		}
	}
	for _, bad := range []string{"", "p99 latency", "lat/ms", "_x", "a{b}"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted as a metric name", bad)
		}
	}
}

func steady(n int, d time.Duration) []sample {
	t0 := time.Unix(0, 0)
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{Due: t0, Start: t0, End: t0.Add(d)}
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {5000, 0.999, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
		if _, ok := percentile(steady(c.n, time.Millisecond), c.p); ok != c.want {
			t.Errorf("percentile over %d samples at %g: ok = %v, want %v", c.n, c.p, ok, c.want)
		}
	}
	// The median is always reported, however few the samples.
	if d, ok := percentile(steady(3, 2*time.Millisecond), 0.5); !ok || d != 2*time.Millisecond {
		t.Errorf("median of 3 = %v, %v", d, ok)
	}
	if line := latencyLine("latency_p99_ms", steady(50, time.Millisecond), 0.99); !bytes.Contains([]byte(line), []byte("n/a (n=50")) {
		t.Errorf("withheld percentile rendered as %q", line)
	}
}

func TestFailedRequestMissesTheLatencyLimit(t *testing.T) {
	s := steady(1000, time.Millisecond)
	if !meetsLimit(s, 0.99, 50*time.Millisecond) {
		t.Fatal("1000 fast requests miss a 50 ms p99 limit")
	}
	// Ten failures still leave p99 on a fast request; the eleventh puts a
	// failure on the percentile itself.
	for i := 0; i < 10; i++ {
		s[i].Err = errors.New("HTTP 503")
	}
	if !meetsLimit(s, 0.99, 50*time.Millisecond) {
		t.Fatal("10 failures in 1000 moved p99")
	}
	s[10].Err = errors.New("refused")
	if meetsLimit(s, 0.99, 50*time.Millisecond) {
		t.Fatal("11 failures in 1000 still meet the p99 limit: a failure must count as infinitely slow")
	}
	// Too few samples to support the percentile never meets a limit.
	if meetsLimit(steady(500, time.Millisecond), 0.99, time.Second) {
		t.Fatal("an unsupported p99 met the limit")
	}
}

func TestOpenLoopTimesFromWhenDue(t *testing.T) {
	// One connection, a request due every 5 ms, each taking 20 ms: the
	// schedule falls behind by 15 ms a request, and that wait must show in
	// the latency, which counts from the due time, not the send time.
	const period, work = 5 * time.Millisecond, 20 * time.Millisecond
	t0 := time.Now()
	s := openLoop(context.Background(), 1, float64(time.Second/period), t0, 10*period, func(context.Context, int) error {
		time.Sleep(work)
		return nil
	})
	if len(s) != 10 {
		t.Fatalf("%d samples, want 10", len(s))
	}
	for i, x := range s {
		if want := t0.Add(time.Duration(i) * period); !x.Due.Equal(want) {
			t.Fatalf("sample %d due %v, want %v", i, x.Due.Sub(t0), want.Sub(t0))
		}
	}
	last := s[len(s)-1]
	if sent := last.End.Sub(last.Start); last.latency() < sent+100*time.Millisecond {
		t.Fatalf("last latency %v vs service time %v: the generator's backlog is missing", last.latency(), sent)
	}
	if last.lag() < 100*time.Millisecond {
		t.Fatalf("last request lag %v, want the accumulated backlog", last.lag())
	}
	if !growingBacklog(s) {
		t.Fatal("a schedule falling 15 ms further behind per request is not a growing backlog")
	}
}

func TestAttributeStacksToLayers(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "tempriv/internal/sim.(*Scheduler).Pop", "tempriv/internal/network.(*runner).run"}, "sim"},
		{[]string{"tempriv/internal/core.(*RCAD).Admit", "tempriv/internal/network.x"}, "buffer"},
		{[]string{"tempriv/internal/metrics.(*MSE).Add", "tempriv/internal/adversary.ScorePerFlow"}, "adversary"},
		{[]string{"tempriv/internal/server.(*Server).handleResult"}, ""},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"net/http.(*conn).serve"}, ""},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestDecodeRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	s, err := decodeShares(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.covered(); c < 0 || c > 1 {
		t.Fatalf("covered share %v outside [0, 1]", c)
	}
}

func TestScrapeKeysSurvivePrefixRename(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("# TYPE x counter\ntempriv_sheds_total 3\ntemprivd_sheds_total 3\ntemprivd_cache_hits_total 7\nlat_bucket{le=\"1\"} 2\n"))
	}))
	defer srv.Close()
	m, err := scrape(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m["sheds_total"] != 3 || m["cache_hits_total"] != 7 || len(m) != 2 {
		t.Fatalf("scrape = %v", m)
	}
}

func TestSameResultNamesTheDifferingField(t *testing.T) {
	ref := resultDoc{Fingerprint: "f", TableText: "t\n", TableCSV: "c\n", Manifest: json.RawMessage(`{"a": 1}`)}
	body := []byte(`{"fingerprint":"f","table_text":"t\n","table_csv":"c\n","manifest":{"a":1}}`)
	if err := sameResult(body, ref); err != nil {
		t.Fatalf("identical result rejected: %v", err)
	}
	bad := bytes.Replace(body, []byte(`"c\n"`), []byte(`"d\n"`), 1)
	if err := sameResult(bad, ref); err == nil || !bytes.Contains([]byte(err.Error()), []byte("table_csv")) {
		t.Fatalf("mismatch reported as %v", err)
	}
}

func TestSpecStreamIsSeedDeterministicAndNeverRepeats(t *testing.T) {
	a, b := newSpecStream(freshDeck(), 7, 1), newSpecStream(freshDeck(), 7, 1)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		x := a.at(i)
		if !bytes.Equal(x, b.at(i)) {
			t.Fatalf("spec %d differs between two streams of one seed", i)
		}
		if seen[string(x)] {
			t.Fatalf("spec %d repeats: %s", i, x)
		}
		seen[string(x)] = true
	}
	if bytes.Equal(a.at(0), newSpecStream(freshDeck(), 8, 1).at(0)) {
		t.Fatal("another seed gave the same first spec")
	}
}

func TestMixFreshIsOneInFour(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		for block := 0; block < 100; block++ {
			n := 0
			for i := 4 * block; i < 4*block+4; i++ {
				if mixFresh(seed, i) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("seed %d block %d has %d fresh requests, want 1", seed, block, n)
			}
		}
	}
}
