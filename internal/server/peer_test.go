package server

// The worker-side peering surface: POST /v1/peer/results writes a ring
// predecessor's finished result into this worker's result cache, and GET
// /v1/peer/results/{fp} serves it back byte-identical to the job's own
// /result document — the contract the gateway's serve-from-peer handoff
// and hedged reads depend on.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tempriv/internal/cluster/peering"
	"tempriv/internal/faultfs"
	"tempriv/internal/jobs"
	"tempriv/internal/resultcache"
	"tempriv/internal/telemetry"
)

// peerWorker is one cluster worker: its own result cache, queue and API.
type peerWorker struct {
	ts    *httptest.Server
	q     *jobs.Queue
	cache *resultcache.Cache
	reg   *telemetry.Registry
}

// newPeerWorker starts a cluster worker whose result cache lives on fs at
// dir; a nil fs is the real disk.
func newPeerWorker(t *testing.T, dir string, fs faultfs.FS) *peerWorker {
	t.Helper()
	cache, err := resultcache.OpenConfig(resultcache.Config{Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	q := jobs.New(NewRunnerConfig(RunnerConfig{Cache: cache, Registry: reg}), jobs.Options{Workers: 1})
	w := &peerWorker{
		ts:    httptest.NewServer(NewConfig(Config{Queue: q, Cache: cache, Registry: reg, ClusterID: "w"})),
		q:     q,
		cache: cache,
		reg:   reg,
	}
	t.Cleanup(w.close)
	return w
}

func (w *peerWorker) close() {
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w.q.Drain(ctx)
}

func getBodyStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// finishedResult runs doc on w and returns the job's fingerprint and its
// /result body.
func finishedResult(t *testing.T, w *peerWorker, doc string) (string, []byte) {
	t.Helper()
	snap := submit(t, w.ts, doc)
	waitState(t, w.q, snap.ID, jobs.StateDone)
	status, body := getBodyStatus(t, w.ts.URL+"/v1/jobs/"+snap.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("owner result: HTTP %d: %s", status, body)
	}
	return snap.Fingerprint, body
}

// replicaDoc turns an owner's /result body into the document the
// write-behind replicator posts.
func replicaDoc(t *testing.T, ownerResult []byte) []byte {
	t.Helper()
	var res struct {
		Fingerprint string          `json:"fingerprint"`
		TableText   string          `json:"table_text"`
		TableCSV    string          `json:"table_csv"`
		Manifest    json.RawMessage `json:"manifest"`
	}
	if err := json.Unmarshal(ownerResult, &res); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(peering.Document{
		Fingerprint: res.Fingerprint,
		TableText:   res.TableText,
		TableCSV:    res.TableCSV,
		Manifest:    res.Manifest,
		Complete:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func postReplica(t *testing.T, w *peerWorker, doc []byte) int {
	t.Helper()
	resp, err := http.Post(w.ts.URL+"/v1/peer/results", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPeerRoundTripByteIdentical replicates a real finished result into a
// second worker and asserts the peer serves the same bytes the owner's
// /result endpoint does.
func TestPeerRoundTripByteIdentical(t *testing.T) {
	owner := newPeerWorker(t, t.TempDir(), nil)
	peer := newPeerWorker(t, t.TempDir(), nil)

	fp, ownerResult := finishedResult(t, owner, smallScenario)
	if status := postReplica(t, peer, replicaDoc(t, ownerResult)); status != http.StatusNoContent {
		t.Fatalf("peer put: HTTP %d", status)
	}
	if n := peer.cache.Stats().Entries; n != 1 {
		t.Fatalf("peer cache holds %d entries, want 1", n)
	}

	status, peerBody := getBodyStatus(t, peer.ts.URL+"/v1/peer/results/"+fp)
	if status != http.StatusOK {
		t.Fatalf("peer get: HTTP %d: %s", status, peerBody)
	}
	if !bytes.Equal(peerBody, ownerResult) {
		t.Fatalf("peer-served result differs from owner's:\nowner: %s\npeer:  %s", ownerResult, peerBody)
	}
	if metrics := getMetrics(t, peer.reg); !strings.Contains(metrics, "tempriv_cluster_peer_received_total 1") {
		t.Fatalf("metrics missing peer received count:\n%s", metrics)
	}
}

// TestPeerReplicaIsTheSuccessorsCacheEntry: a replica lands in the
// receiving worker's result cache, so it outlives that worker's restart
// and a later submission of the same spec there is answered from it
// without running the engine.
func TestPeerReplicaIsTheSuccessorsCacheEntry(t *testing.T) {
	owner := newPeerWorker(t, t.TempDir(), nil)
	peerDir := t.TempDir()
	peer := newPeerWorker(t, peerDir, nil)

	fp, ownerResult := finishedResult(t, owner, smallScenario)
	if status := postReplica(t, peer, replicaDoc(t, ownerResult)); status != http.StatusNoContent {
		t.Fatalf("peer put: HTTP %d", status)
	}

	// Restart the successor on the same cache directory.
	peer.close()
	reopened := newPeerWorker(t, peerDir, nil)
	status, body := getBodyStatus(t, reopened.ts.URL+"/v1/peer/results/"+fp)
	if status != http.StatusOK || !bytes.Equal(body, ownerResult) {
		t.Fatalf("replica after restart: HTTP %d, identical=%v", status, bytes.Equal(body, ownerResult))
	}

	snap := submit(t, reopened.ts, smallScenario)
	done := waitDone(t, reopened.ts, snap.ID)
	if done.State != jobs.StateDone || !done.CacheHit {
		t.Fatalf("resubmission on the successor was not a cache hit: %+v", done)
	}
	if runs := reopened.reg.Counter("tempriv_runs_total").Value(); runs != 0 {
		t.Fatalf("tempriv_runs_total = %d after a replicated resubmission, want 0", runs)
	}
	status, body = getBodyStatus(t, reopened.ts.URL+"/v1/jobs/"+snap.ID+"/result")
	if status != http.StatusOK || !bytes.Equal(body, ownerResult) {
		t.Fatalf("resubmitted result: HTTP %d, identical=%v", status, bytes.Equal(body, ownerResult))
	}
}

// TestPeerPutBreakerOpenIs503: a replica the cache cannot store is refused
// with 503 — failed writes first, then the open breaker, which would
// otherwise turn Put into a silent no-op — and is never counted received.
func TestPeerPutBreakerOpenIs503(t *testing.T) {
	owner := newPeerWorker(t, t.TempDir(), nil)
	ff := faultfs.NewFaulty(faultfs.OS{})
	peer := newPeerWorker(t, t.TempDir(), ff)

	_, ownerResult := finishedResult(t, owner, smallScenario)
	doc := replicaDoc(t, ownerResult)
	ff.Set(faultfs.OpWrite, faultfs.Fault{Err: faultfs.ErrNoSpace})
	for i := 0; i < resultcache.DefaultBreakerThreshold; i++ {
		if status := postReplica(t, peer, doc); status != http.StatusServiceUnavailable {
			t.Fatalf("put %d on a full disk: HTTP %d, want 503", i, status)
		}
	}
	if st := peer.cache.BreakerState(); st != resultcache.BreakerOpen {
		t.Fatalf("breaker %s after %d failed puts, want open", st, resultcache.DefaultBreakerThreshold)
	}

	// The disk recovers, but the breaker stays open for its cooldown.
	ff.ClearAll()
	resp, err := http.Post(peer.ts.URL+"/v1/peer/results", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	decodeBody(t, resp, &e)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(e.Error, "breaker open") {
		t.Fatalf("put with the breaker open: HTTP %d %+v, want 503 naming the breaker", resp.StatusCode, e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if n := peer.reg.Counter("tempriv_cluster_peer_received_total").Value(); n != 0 {
		t.Fatalf("tempriv_cluster_peer_received_total = %d for replicas that never landed", n)
	}
}

// TestPeerGetFallsBackToOwnWork: a worker that computed a result itself
// answers a peer GET for it — hedged reads can target any node that
// finished the job.
func TestPeerGetFallsBackToOwnWork(t *testing.T) {
	w := newPeerWorker(t, t.TempDir(), nil)
	fp, ownResult := finishedResult(t, w, smallScenario)
	status, body := getBodyStatus(t, w.ts.URL+"/v1/peer/results/"+fp)
	if status != http.StatusOK {
		t.Fatalf("peer get of own result: HTTP %d: %s", status, body)
	}
	if !bytes.Equal(body, ownResult) {
		t.Fatal("peer get of own result differs from /result")
	}
}

func TestPeerPutRejectsBadDocuments(t *testing.T) {
	w := newPeerWorker(t, t.TempDir(), nil)
	fp := strings.Repeat("ab", 32)
	for name, doc := range map[string]string{
		"not json":        "{",
		"incomplete":      `{"fingerprint":"` + fp + `","table_text":"t","complete":false}`,
		"bad fingerprint": `{"fingerprint":"zz","table_text":"t","complete":true}`,
		"empty replica":   `{"fingerprint":"` + fp + `","complete":true}`,
	} {
		if status := postReplica(t, w, []byte(doc)); status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, status)
		}
	}
	oversized := fmt.Sprintf(`{"fingerprint":%q,"table_text":%q,"complete":true}`, fp, strings.Repeat("x", maxPeerDocBytes))
	if status := postReplica(t, w, []byte(oversized)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized: HTTP %d, want 413", status)
	}
	if n := w.cache.Stats().Entries; n != 0 {
		t.Fatalf("cache accepted %d bad replicas", n)
	}
}

func TestPeerGetUnknownFingerprintIs404(t *testing.T) {
	w := newPeerWorker(t, t.TempDir(), nil)
	for _, fp := range []string{strings.Repeat("00", 32), "not-a-fingerprint"} {
		if status, _ := getBodyStatus(t, w.ts.URL+"/v1/peer/results/"+fp); status != http.StatusNotFound {
			t.Fatalf("%s: HTTP %d, want 404", fp, status)
		}
	}
}

// TestPeerEndpointsAbsentWithoutStore: the replication surface needs both
// cluster mode and a result cache to store replicas in. A standalone
// worker, and a cluster worker without a cache, do not expose it.
func TestPeerEndpointsAbsentWithoutStore(t *testing.T) {
	standalone, _, _ := newTestServer(t, true)
	q := jobs.New(NewRunnerConfig(RunnerConfig{}), jobs.Options{Workers: 1})
	t.Cleanup(func() { drainQueue(t, q) })
	cacheless := httptest.NewServer(NewConfig(Config{Queue: q, ClusterID: "w"}))
	t.Cleanup(cacheless.Close)
	for name, ts := range map[string]*httptest.Server{"standalone": standalone, "cluster without cache": cacheless} {
		status, _ := getBodyStatus(t, ts.URL+"/v1/peer/results/"+strings.Repeat("00", 32))
		if status != http.StatusNotFound {
			t.Fatalf("%s GET: HTTP %d, want 404", name, status)
		}
		resp, err := http.Post(ts.URL+"/v1/peer/results", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s POST: HTTP %d, want 404", name, resp.StatusCode)
		}
	}
}
