package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestResultsGolden is the reproduction's oracle: a full-size `sweep -exp
// all` regenerated in-process must match every committed results/<id>.txt
// and results/<id>.csv byte for byte, and every experiment the registry
// runs must have both files committed.
func TestResultsGolden(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "all", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	compared := make(map[string]bool)
	for _, path := range committed {
		name := filepath.Base(path)
		if ext := filepath.Ext(name); ext != ".txt" && ext != ".csv" {
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s is committed but the sweep did not produce it: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed result\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		compared[name] = true
	}
	generated, err := filepath.Glob(filepath.Join(dir, "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range generated {
		name := filepath.Base(path)
		if ext := filepath.Ext(name); (ext == ".txt" || ext == ".csv") && !compared[name] {
			t.Errorf("the sweep produced %s but results/ has no committed copy", name)
		}
	}
}
