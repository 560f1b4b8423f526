package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testFingerprint(i int) string {
	return fmt.Sprintf("%064x", i)
}

func testEntry(i, size int) *Entry {
	return &Entry{
		Fingerprint: testFingerprint(i),
		TableText:   bytes.Repeat([]byte{'t'}, size),
		TableCSV:    []byte("a,b\n1,2\n"),
		Manifest:    []byte(`{"kind":"experiment"}`),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry(1, 100)
	if _, ok, err := c.Get(want.Fingerprint); err != nil || ok {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	if err := c.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(want.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("expected hit, got ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, want.TableText) ||
		!bytes.Equal(got.TableCSV, want.TableCSV) ||
		!bytes.Equal(got.Manifest, want.Manifest) {
		t.Fatal("cached bytes differ from stored bytes")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats bytes not accounted: %+v", st)
	}
}

func TestPutIsIdempotent(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	// A second Put of the same fingerprint must not disturb the entry.
	e2 := testEntry(1, 10)
	e2.TableText = []byte("different")
	if err := c.Put(e2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(e.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("second Put overwrote the original entry")
	}
}

func TestInvalidFingerprintRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"",
		"abc",
		strings.Repeat("g", 64),       // not hex
		strings.Repeat("A", 64),       // upper case
		"../../../../etc/passwd",      // traversal
		strings.Repeat("a", 63) + "/", // separator
		strings.Repeat("a", 65),       // wrong length
	}
	for _, fp := range bad {
		if err := c.Put(&Entry{Fingerprint: fp, TableText: []byte("x"), TableCSV: []byte("y"), Manifest: []byte("{}")}); err == nil {
			t.Errorf("Put accepted fingerprint %q", fp)
		}
		if _, ok, err := c.Get(fp); err == nil || ok {
			t.Errorf("Get accepted fingerprint %q (ok=%v err=%v)", fp, ok, err)
		}
	}
	// Nothing escaped the cache root.
	if _, err := os.Stat(filepath.Join(dir, "v2")); err == nil {
		entries, _ := os.ReadDir(filepath.Join(dir, "v2"))
		if len(entries) != 0 {
			t.Fatalf("unexpected entries: %v", entries)
		}
	}
}

func TestPartialEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "v2", e.Fingerprint, "table.csv")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(e.Fingerprint); err != nil || ok {
		t.Fatalf("partial entry should miss, got ok=%v err=%v", ok, err)
	}
}

func TestEvictionKeepsRecent(t *testing.T) {
	dir := t.TempDir()
	// Each entry is ~4KiB of table text; budget fits roughly three.
	c, err := Open(dir, 13<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e := testEntry(i, 4<<10)
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
		// Age the directory so mtime ordering is unambiguous even on
		// coarse-grained filesystems.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, "v2", e.Fingerprint), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Re-run eviction now that mtimes are staggered.
	if err := c.Put(testEntry(6, 4<<10)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats: %+v", st)
	}
	if st.Bytes > 13<<10 {
		t.Fatalf("still over budget: %+v", st)
	}
	// The newest insert survives.
	if _, ok, err := c.Get(testFingerprint(6)); err != nil || !ok {
		t.Fatalf("newest entry evicted: ok=%v err=%v", ok, err)
	}
	// The oldest is gone.
	if _, ok, _ := c.Get(testFingerprint(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c, err := Open(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Put(testEntry(i, 8<<10)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != 5 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

func TestReopenSeesExistingEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c2.Get(e.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("reopened cache missed: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("reopened cache returned different bytes")
	}
}

// TestReopenedCacheCountsExistingEntries: the size bound covers entries a
// previous process life left behind, not only this process's own Puts.
func TestReopenedCacheCountsExistingEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put(testEntry(i, 4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	bounded, err := Open(dir, 9<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := bounded.Put(testEntry(9, 10)); err != nil {
		t.Fatal(err)
	}
	st := bounded.Stats()
	if st.Evictions == 0 || st.Bytes > 9<<10 {
		t.Fatalf("reopened cache ignored the population it inherited: %+v", st)
	}
}

func TestConcurrentSameFingerprint(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Put(testEntry(1, 100)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := c.Get(e.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.TableText, e.TableText) {
		t.Fatal("racing writers corrupted the entry")
	}
}
