package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tempriv/internal/scenario"
)

// newHTTPClient returns a client that holds at most conns connections to
// any host: the load generator never drives more concurrency than that.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobResult is what one pass of the client protocol returns.
type jobResult struct {
	Body      []byte
	Worker    string // owning worker, through the gateway only
	WorkerJob string
	Polls     int
	Terminal  int // polls that found the job terminal
	CacheHit  bool
	JobID     string
}

type snapshot struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	CacheHit  bool   `json:"cache_hit"`
	Worker    string `json:"worker"`
	WorkerJob string `json:"worker_job"`
	Error     string `json:"error"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// runJob follows the documented client protocol against base (a temprivd
// or a temprivgw): POST the spec, poll GET /v1/jobs/{id} until the job is
// terminal, then GET /v1/jobs/{id}/result. Any non-2xx answer, a job that
// does not finish done, or a transport error is a failed operation.
func runJob(ctx context.Context, c *http.Client, base string, spec []byte) (jobResult, error) {
	var out jobResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var snap snapshot
	if err := json.Unmarshal(b, &snap); err != nil || snap.ID == "" {
		return out, fmt.Errorf("submit: undecodable snapshot %q", b)
	}
	out.JobID = snap.ID
	// The first poll goes out at once, then waits double from 100 µs to
	// 8 ms: steps fine enough that a cache hit's latency is not rounded up
	// to a sleep, few enough polls on a fresh job of a second.
	wait := time.Duration(0)
	for !terminal(snap.State) {
		if wait > 0 {
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			case <-time.After(wait):
			}
		}
		wait = min(max(2*wait, 100*time.Microsecond), 8*time.Millisecond)
		status, b, err := get(ctx, c, base+"/v1/jobs/"+snap.ID)
		if err != nil {
			return out, fmt.Errorf("status: %w", err)
		}
		if status != http.StatusOK {
			return out, fmt.Errorf("status: HTTP %d: %s", status, bytes.TrimSpace(b))
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			return out, fmt.Errorf("status: %w", err)
		}
		out.Polls++
		if terminal(snap.State) {
			out.Terminal++
		}
	}
	out.Worker, out.WorkerJob, out.CacheHit = snap.Worker, snap.WorkerJob, snap.CacheHit
	if snap.State != "done" {
		return out, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	status, body, err := get(ctx, c, base+"/v1/jobs/"+snap.ID+"/result")
	if err != nil {
		return out, fmt.Errorf("result: %w", err)
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("result: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	out.Body = body
	return out, nil
}

// resultDoc is the served result document. Only deterministic fields are
// compared; the envelope's whitespace is not.
type resultDoc struct {
	Fingerprint string          `json:"fingerprint"`
	TableText   string          `json:"table_text"`
	TableCSV    string          `json:"table_csv"`
	Manifest    json.RawMessage `json:"manifest"`
}

// reference computes a spec's result through the simple path: in-process
// scenario.Run with fresh engines, no cache, no chunks, no server.
func reference(ctx context.Context, spec []byte) (resultDoc, error) {
	sp, err := scenario.Parse(spec)
	if err != nil {
		return resultDoc{}, err
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		return resultDoc{}, err
	}
	out, err := scenario.Run(ctx, sp, scenario.Options{DisableEngineReuse: true})
	if err != nil {
		return resultDoc{}, err
	}
	man, err := out.ManifestJSON()
	if err != nil {
		return resultDoc{}, err
	}
	return resultDoc{Fingerprint: fp, TableText: string(out.TableText), TableCSV: string(out.TableCSV), Manifest: man}, nil
}

// sameResult compares a served body with its reference byte for byte on
// every deterministic field, and names the first field that differs.
func sameResult(body []byte, ref resultDoc) error {
	var got resultDoc
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable result body: %w", err)
	}
	switch {
	case got.Fingerprint != ref.Fingerprint:
		return fmt.Errorf("fingerprint %s, reference %s", got.Fingerprint, ref.Fingerprint)
	case got.TableText != ref.TableText:
		return fmt.Errorf("table_text differs from the reference")
	case got.TableCSV != ref.TableCSV:
		return fmt.Errorf("table_csv differs from the reference")
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, got.Manifest); err != nil {
		return fmt.Errorf("undecodable manifest: %w", err)
	}
	if err := json.Compact(&b, ref.Manifest); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("manifest differs from the reference")
	}
	return nil
}

// references computes the reference result of every distinct spec with
// two workers (the machine's CPU count), keyed by spec text.
func references(ctx context.Context, specs [][]byte) (map[string]resultDoc, error) {
	uniq := map[string]bool{}
	var todo []string
	for _, s := range specs {
		if !uniq[string(s)] {
			uniq[string(s)] = true
			todo = append(todo, string(s))
		}
	}
	out := make(map[string]resultDoc, len(todo))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				ref, err := reference(ctx, []byte(s))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s: %w", s, err)
				}
				out[s] = ref
				mu.Unlock()
			}
		}()
	}
	for _, s := range todo {
		next <- s
	}
	close(next)
	wg.Wait()
	return out, firstErr
}
