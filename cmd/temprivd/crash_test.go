package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// slowScenario runs long enough (replicated) to be caught mid-flight by a
// SIGKILL while staying cheap to finish during recovery.
const slowScenario = `{"version":1,"experiment":{"id":"fig3","packets":400,"interarrivals":[2,4],"replicates":8,"seed":7}}`

// TestHelperDaemon is not a test: it is the subprocess body for the crash
// e2e. The parent re-execs this binary with TEMPRIVD_HELPER=1 (and
// GOMAXPROCS=1, so one job lane runs one replicate at a time) and SIGKILLs
// it mid-run — exactly the failure the journal exists for.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv("TEMPRIVD_HELPER") != "1" {
		t.Skip("helper subprocess body, not a test")
	}
	ready := make(chan string, 1)
	go func() {
		// The parent scans stdout for this marker to learn the port.
		fmt.Printf("DAEMON_ADDR=%s\n", <-ready)
	}()
	args := []string{
		"-addr", "localhost:0",
		"-cache", os.Getenv("TEMPRIVD_CACHE"),
		"-journal", os.Getenv("TEMPRIVD_JOURNAL"),
	}
	if dir := os.Getenv("TEMPRIVD_CHUNKS"); dir != "" {
		args = append(args, "-chunks", dir)
	}
	if err := run(context.Background(), args, ready); err != nil {
		fmt.Fprintln(os.Stderr, "helper daemon:", err)
		os.Exit(1)
	}
}

// TestCrashRecovery is the durability e2e from the issue: boot the daemon
// as a real process, accept jobs (one finished, one running, one queued),
// SIGKILL it, restart on the same journal and cache, and require
//
//   - /readyz to answer 503 while the journal replays, then 200,
//   - every accepted job to reach "done" with its result retrievable,
//   - the pre-crash result to be served byte-identical after the restart.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	cacheDir := t.TempDir()
	journalDir := t.TempDir()

	// --- Phase 1: real subprocess, killed without warning. ---
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperDaemon$", "-test.v")
	cmd.Env = append(os.Environ(),
		"TEMPRIVD_HELPER=1", "GOMAXPROCS=1",
		"TEMPRIVD_CACHE="+cacheDir,
		"TEMPRIVD_JOURNAL="+journalDir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "DAEMON_ADDR="); ok {
				addrCh <- rest
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(20 * time.Second):
		t.Fatal("subprocess daemon never reported its address")
	}
	// Wait out the replay window (empty journal, so it is brief).
	waitReady(t, base)

	// One job runs to completion before the crash...
	doneJob := postJob(t, base, testScenario)
	if v := awaitJob(t, base, doneJob.ID); v.State != "done" {
		t.Fatalf("pre-crash job: %+v", v)
	}
	status, preCrashResult := getBody(t, base+"/v1/jobs/"+doneJob.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("pre-crash result status %d", status)
	}
	// ...one is mid-run when the axe falls (1 worker: the first slow job
	// occupies it)...
	runningJob := postJob(t, base, slowScenario)
	waitJobState(t, base, runningJob.ID, "running")
	// ...and one is still queued behind it.
	queuedJob := postJob(t, base, strings.Replace(slowScenario, `"seed":7`, `"seed":8`, 1))

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	// --- Phase 2: restart in-process on the same state. ---
	gate := make(chan struct{})
	replayObserved := make(chan string, 1)
	testHookReplaying = func() { replayObserved <- "at-hook"; <-gate }
	defer func() { testHookReplaying = nil }()

	base2, shutdown := startDaemon(t, "-cache", cacheDir, "-journal", journalDir)
	select {
	case <-replayObserved:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never entered the replay window")
	}
	// The listener is up but replay has not finished: not ready, alive.
	st, body := getBody(t, base2+"/readyz")
	if st != http.StatusServiceUnavailable || !strings.Contains(string(body), "replaying") {
		t.Fatalf("readyz during replay: %d %s", st, body)
	}
	if st, _ := getBody(t, base2+"/healthz"); st != http.StatusOK {
		t.Fatalf("healthz during replay: %d", st)
	}
	close(gate)
	waitReady(t, base2)

	// Every accepted job survived the crash and reaches done.
	for _, id := range []string{doneJob.ID, runningJob.ID, queuedJob.ID} {
		if v := awaitJob(t, base2, id); v.State != "done" {
			t.Fatalf("job %s after recovery: %+v", id, v)
		}
	}
	// The pre-crash result is re-served byte-identical (from the cache, by
	// fingerprint — the in-memory copy died with the process).
	status, postCrashResult := getBody(t, base2+"/v1/jobs/"+doneJob.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("post-crash result status %d: %s", status, postCrashResult)
	}
	if string(preCrashResult) != string(postCrashResult) {
		t.Fatalf("recovered result not byte-identical:\n%s\nvs\n%s", preCrashResult, postCrashResult)
	}
	// The interrupted jobs' results are real (they re-ran to completion).
	for _, id := range []string{runningJob.ID, queuedJob.ID} {
		if st, body := getBody(t, base2+"/v1/jobs/"+id+"/result"); st != http.StatusOK || len(body) == 0 {
			t.Fatalf("recovered job %s result: %d %s", id, st, body)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// --- Phase 3: a third boot replays the compacted journal cleanly and
	// still serves the finished population. ---
	base3, shutdown3 := startDaemon(t, "-cache", cacheDir, "-journal", journalDir)
	waitReady(t, base3)
	for _, id := range []string{doneJob.ID, runningJob.ID, queuedJob.ID} {
		if v := awaitJob(t, base3, id); v.State != "done" {
			t.Fatalf("job %s after second restart: %+v", id, v)
		}
	}
	if err := shutdown3(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", base)
}

func waitJobState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		if err := decodeInto(resp, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}
