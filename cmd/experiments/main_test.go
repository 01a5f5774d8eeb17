package main

import (
	"strings"
	"testing"

	"hpxgo/internal/bench"
)

// TestTargetsTable: the usage text lists every target exactly once and
// nothing else, and each listed target resolves; bench-claims runs exactly
// the artifacts that make a claim; `all` expands only to targets that
// resolve.
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
	// The usage lists exactly the paper targets, the artifacts, bench-claims
	// and all: no retired target lingers.
	want := []string{"bench-claims", "all"}
	for _, p := range paperTargets {
		want = append(want, p.name)
	}
	for _, a := range bench.Artifacts {
		if lookup(a.Name) == nil {
			t.Fatalf("artifact %q does not resolve", a.Name)
		}
		want = append(want, a.Name)
	}
	for _, name := range want {
		if !inUsage[name] {
			t.Fatalf("usage is missing %q", name)
		}
	}
	if len(listed) != len(want) {
		t.Fatalf("usage lists %v; want exactly %v", listed, want)
	}
	inClaims := map[string]bool{}
	for _, a := range claimed() {
		inClaims[a.Name] = true
	}
	for _, a := range bench.Artifacts {
		if inClaims[a.Name] != (len(a.Claims) > 0) {
			t.Fatalf("artifact %q has %d claims but bench-claims includes it: %v", a.Name, len(a.Claims), inClaims[a.Name])
		}
	}
	if len(inClaims) == 0 {
		t.Fatal("bench-claims runs no artifact")
	}
	all := targetNames(true)
	if len(all) != len(paperTargets)+1 || all[len(all)-1] != "collectives" {
		t.Fatalf("`all` expands to %v; want the paper targets plus collectives", all)
	}
	if lookup("nonsense") != nil {
		t.Fatal("unknown target resolved")
	}
}
