package hpxgo

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// examples lists every example program with the output that proves it did
// its job. TestExamplesTableListsEveryExample keeps it in step with the
// examples/ directory.
var examples = []struct {
	dir    string
	needle string
}{
	{"quickstart", "hello world, from locality 1"},
	{"pingpong", "one-way"},
	{"taskgraph", "sum="},
	{"lcidirect", "rendezvous"},
	{"graphbfs", "verified: results match"},
	{"dfft", "verified: distributed FFT matches the serial reference"},
	{"kvserve", "verified: serving tier absorbed the hot set"},
}

// TestExamplesRun executes every example binary end to end and checks its
// self-verification output. Examples double as integration tests of the
// public API.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples in -short mode")
	}
	for _, tc := range examples {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./examples/"+tc.dir)
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(3 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatalf("example %s timed out", tc.dir)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", tc.dir, err, out)
			}
			if !strings.Contains(string(out), tc.needle) {
				t.Fatalf("example %s output missing %q:\n%s", tc.dir, tc.needle, out)
			}
		})
	}
}

// TestExamplesTableListsEveryExample keeps TestExamplesRun a run of every
// example: each directory under examples/ has exactly one row of the
// examples table, and each row names a directory.
func TestExamplesTableListsEveryExample(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, ex := range examples {
		rows[ex.dir]++
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if n := rows[e.Name()]; n != 1 {
			t.Errorf("examples/%s has %d rows in the examples table, want 1", e.Name(), n)
		}
		delete(rows, e.Name())
	}
	for dir := range rows {
		t.Errorf("examples table row %q names no directory under examples/", dir)
	}
}
