package peering

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tempriv/internal/cluster/registry"
)

// fp builds a syntactically valid fingerprint from a seed byte.
func fp(b byte) string { return strings.Repeat(fmt.Sprintf("%02x", b), 32) }

func replica(b byte, size int) Replica {
	return Replica{
		Fingerprint: fp(b),
		TableText:   []byte(strings.Repeat("t", size)),
		TableCSV:    []byte("csv"),
		Manifest:    []byte(`{"m":1}`),
	}
}

// peerServer is a fake worker peer endpoint recording received documents.
type peerServer struct {
	mu   sync.Mutex
	docs []Document
	fail int // reject this many posts first
}

func (p *peerServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.fail > 0 {
			p.fail--
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		var doc Document
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.docs = append(p.docs, doc)
		w.WriteHeader(http.StatusNoContent)
	})
}

func (p *peerServer) received() []Document {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Document(nil), p.docs...)
}

func TestReplicatorSendsToSuccessor(t *testing.T) {
	peer := &peerServer{}
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()

	r := NewReplicator(ReplicatorOptions{SelfID: "w1", Sleep: func(time.Duration) {}})
	r.SetMembers([]registry.Worker{{ID: "w1", URL: "http://self.invalid"}, {ID: "w2", URL: srv.URL}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)

	r.Offer(replica(1, 8))
	r.Wait()

	docs := peer.received()
	if len(docs) != 1 {
		t.Fatalf("peer received %d docs, want 1", len(docs))
	}
	if docs[0].Fingerprint != fp(1) || !docs[0].Complete {
		t.Fatalf("doc = %+v", docs[0])
	}
	if docs[0].TableText != strings.Repeat("t", 8) {
		t.Fatalf("table text corrupted: %q", docs[0].TableText)
	}
}

func TestReplicatorRetriesWithBackoff(t *testing.T) {
	peer := &peerServer{fail: 2}
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()

	var sleeps []time.Duration
	r := NewReplicator(ReplicatorOptions{
		SelfID:  "w1",
		Backoff: 100 * time.Millisecond,
		Sleep:   func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	r.SetMembers([]registry.Worker{{ID: "w1", URL: "http://self.invalid"}, {ID: "w2", URL: srv.URL}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)

	r.Offer(replica(2, 8))
	r.Wait()

	if len(peer.received()) != 1 {
		t.Fatalf("peer received %d docs, want 1 after retries", len(peer.received()))
	}
	if len(sleeps) != 2 || sleeps[0] != 100*time.Millisecond || sleeps[1] != 200*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want [100ms 200ms]", sleeps)
	}
}

func TestReplicatorDropsAfterAttemptsExhausted(t *testing.T) {
	peer := &peerServer{fail: 100}
	srv := httptest.NewServer(peer.handler())
	defer srv.Close()

	r := NewReplicator(ReplicatorOptions{
		SelfID:   "w1",
		Attempts: 3,
		Sleep:    func(time.Duration) {},
	})
	r.SetMembers([]registry.Worker{{ID: "w1", URL: "http://self.invalid"}, {ID: "w2", URL: srv.URL}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Run(ctx)

	r.Offer(replica(3, 8))
	r.Wait() // must terminate: the replica is dropped, not retried forever

	if got := len(peer.received()); got != 0 {
		t.Fatalf("peer received %d docs, want 0", got)
	}
}

func TestReplicatorNeverTargetsSelf(t *testing.T) {
	r := NewReplicator(ReplicatorOptions{SelfID: "w1", Attempts: 1, Sleep: func(time.Duration) {}})
	r.SetMembers([]registry.Worker{{ID: "w1", URL: "http://self.invalid"}})
	if _, _, ok := r.successor(fp(1)); ok {
		t.Fatal("single-member cluster resolved a successor (self)")
	}
}

func TestReplicatorOfferNeverBlocks(t *testing.T) {
	r := NewReplicator(ReplicatorOptions{SelfID: "w1", QueueDepth: 1, Sleep: func(time.Duration) {}})
	// No Run loop: the queue fills and further offers must drop, not hang.
	done := make(chan struct{})
	go func() {
		for b := byte(1); b <= 10; b++ {
			r.Offer(replica(b, 4))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Offer blocked on a full queue")
	}
}
