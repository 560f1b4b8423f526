package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// resumeScenario is sized so each replicate takes long enough (~150ms) that
// the parent can observe persisted chunks and SIGKILL mid-run, while the
// recovery pass still finishes quickly.
const resumeScenario = `{"version":1,"experiment":{"id":"fig3","packets":1000,"interarrivals":[2,4],"replicates":8,"seed":11}}`

// promCounter extracts a counter's value from Prometheus text format.
func promCounter(t *testing.T, base, name string) uint64 {
	t.Helper()
	status, body := getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestResumeAfterCrash is the streaming-durability e2e: a real daemon
// process is SIGKILLed mid-replication, and the restart must resume from
// the persisted replicate chunks — skipping recomputation of what survived
// — and serve a result byte-identical to an uninterrupted run.
func TestResumeAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}

	// Baseline: the same spec run to completion with no interruption (and
	// no chunk store — the monolithic path is the oracle).
	base0, shutdown0 := startDaemon(t)
	baseJob := postJob(t, base0, resumeScenario)
	if v := awaitJob(t, base0, baseJob.ID); v.State != "done" {
		t.Fatalf("baseline job: %+v", v)
	}
	status, wantResult := getBody(t, base0+"/v1/jobs/"+baseJob.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("baseline result status %d", status)
	}
	if err := shutdown0(); err != nil {
		t.Fatalf("baseline shutdown: %v", err)
	}

	cacheDir := t.TempDir()
	journalDir := t.TempDir()
	chunksDir := t.TempDir()

	// --- Phase 1: subprocess daemon, killed once >=2 chunks persist. ---
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperDaemon$", "-test.v")
	cmd.Env = append(os.Environ(),
		"TEMPRIVD_HELPER=1", "GOMAXPROCS=1",
		"TEMPRIVD_CACHE="+cacheDir,
		"TEMPRIVD_JOURNAL="+journalDir,
		"TEMPRIVD_CHUNKS="+chunksDir,
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
	waitReady(t, base)

	job := postJob(t, base, resumeScenario)
	// Kill the moment at least two replicate chunks are on disk but the job
	// is still mid-run: exactly the torn state resume exists for.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never persisted 2 chunks while running")
		}
		st, body := getBody(t, base+"/v1/jobs/"+job.ID)
		if st != http.StatusOK {
			t.Fatalf("status poll %d: %s", st, body)
		}
		if strings.Contains(string(body), `"state":"done"`) {
			t.Fatal("job finished before the kill — grow the scenario")
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.ChunksPersisted >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	// The chunk file survives the kill (possibly with a torn tail).
	fp := job.Fingerprint
	chunkPath := filepath.Join(chunksDir, fp+".chunks.jsonl")
	if _, err := os.Stat(chunkPath); err != nil {
		t.Fatalf("chunk file missing after kill: %v", err)
	}

	// --- Phase 2: restart on the same journal + chunks. ---
	base2, shutdown2 := startDaemon(t, "-cache", cacheDir, "-journal", journalDir, "-chunks", chunksDir)
	waitReady(t, base2)
	if v := awaitJob(t, base2, job.ID); v.State != "done" {
		t.Fatalf("job after recovery: %+v", v)
	}

	// The surviving replicates were served from chunks, not recomputed.
	if skipped := promCounter(t, base2, "tempriv_replicates_skipped_on_resume_total"); skipped < 2 {
		t.Fatalf("replicates skipped on resume = %d, want >= 2", skipped)
	}
	if written := promCounter(t, base2, "tempriv_chunks_written_total"); written == 0 || written >= 8 {
		t.Fatalf("chunks written after resume = %d, want 1..7 (only the missing replicates)", written)
	}

	// The recovered result is byte-identical to the uninterrupted run.
	status, gotResult := getBody(t, base2+"/v1/jobs/"+job.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("recovered result status %d: %s", status, gotResult)
	}
	if string(gotResult) != string(wantResult) {
		t.Fatalf("recovered result not byte-identical:\n%s\nvs\n%s", gotResult, wantResult)
	}

	// Once the result is cached the chunks have served their purpose.
	if _, err := os.Stat(chunkPath); !os.IsNotExist(err) {
		t.Fatalf("chunk file survives after completion: %v", err)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
