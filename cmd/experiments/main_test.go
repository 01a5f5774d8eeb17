package main

import (
	"strings"
	"testing"

	"hpxgo/internal/bench"
)

// TestTargetsTable: every artifact is reachable as a target, appears in the
// usage text, and has a unique name and file; `all` expands only to targets
// that resolve.
func TestTargetsTable(t *testing.T) {
	listed := strings.Fields(strings.SplitN(usage(), "targets: ", 2)[1])
	inUsage := map[string]bool{}
	for _, name := range listed {
		if inUsage[name] {
			t.Fatalf("target %q listed twice in usage", name)
		}
		inUsage[name] = true
		if name != "all" && lookup(name) == nil {
			t.Fatalf("usage lists %q but it does not resolve", name)
		}
	}
	files := map[string]bool{}
	for _, a := range bench.Artifacts {
		if lookup(a.Name) == nil || !inUsage[a.Name] {
			t.Fatalf("artifact %q is not a reachable, listed target", a.Name)
		}
		if files[a.File] {
			t.Fatalf("artifact file %q used twice", a.File)
		}
		files[a.File] = true
	}
	for _, name := range []string{"bench-gate", "all", "table1", "fig11", "reliability"} {
		if !inUsage[name] {
			t.Fatalf("usage is missing %q", name)
		}
	}
	all := targetNames(true)
	if len(all) != len(paperTargets)+1 || all[len(all)-1] != "collectives" {
		t.Fatalf("`all` expands to %v; want the paper targets plus collectives", all)
	}
	if lookup("nonsense") != nil {
		t.Fatal("unknown target resolved")
	}
}
