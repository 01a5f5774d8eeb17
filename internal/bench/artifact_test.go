package bench

import (
	"strings"
	"testing"
)

// TestCheckClaims covers absolute bounds, prefix rows, ratio claims, a
// missing row, and a ratio claim whose base row is missing or measured
// nothing — which fails naming the base row rather than passing unchecked.
func TestCheckClaims(t *testing.T) {
	art := &Artifact{Name: "synthetic", Claims: []Claim{
		{Row: "x/c*", Col: "allocs_op", Dir: Lower, Bound: 0.5, Why: "chunked rows must not allocate"},
		{Row: "x/on", Col: "frac", Dir: Higher, Bound: 0.5, Why: "lane engaged"},
		{Row: "x/on", Col: "frac", Dir: Higher, Bound: 1.3, Base: "x/off", Why: "ratio"},
	}}
	good := []Record{
		row("x/c1", "allocs_op", 0.5), row("x/c2", "allocs_op", 0.0), row("x/blob", "allocs_op", 40.0),
		row("x/on", "frac", 0.7), row("x/off", "frac", 0.5),
	}
	if err := art.CheckClaims(good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		recs []Record
		want []string // substrings of the error
	}{
		{"absolute, prefix and missing row", []Record{row("x/c1", "allocs_op", 0.51), row("x/off", "frac", 1.0)},
			[]string{"x/c1 allocs_op 0.51", "x/on: row missing"}},
		{"ratio below its multiple of the base", []Record{row("x/on", "frac", 0.64), row("x/off", "frac", 0.5)},
			[]string{"x/on frac 0.64, want >= 0.65 = 1.3x x/off 0.5 (ratio)"}},
		{"base row missing", []Record{row("x/on", "frac", 0.65)},
			[]string{"x/on: base row x/off has no frac"}},
		{"base row measured nothing", []Record{row("x/on", "frac", 0.65), row("x/off", "frac", 0.0)},
			[]string{"x/on: base row x/off has no frac"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := art.CheckClaims(tc.recs)
			if err == nil {
				t.Fatal("claims passed on a bad report")
			}
			for _, needle := range tc.want {
				if !strings.Contains(err.Error(), needle) {
					t.Fatalf("claims error missing %q:\n%v", needle, err)
				}
			}
		})
	}
}

// TestArtifactsTable checks each entry is complete and its claims name
// columns the artifact has (a typo there would make a claim vacuous).
func TestArtifactsTable(t *testing.T) {
	for i := range Artifacts {
		a := &Artifacts[i]
		if a.Name == "" || a.Measure == nil || len(a.Columns) == 0 {
			t.Fatalf("incomplete entry %+v", a)
		}
		cols := map[string]bool{}
		for _, c := range a.Columns {
			cols[c.Key] = true
		}
		for _, cl := range a.Claims {
			if !cols[cl.Col] || (cl.Dir != Lower && cl.Dir != Higher) || cl.Why == "" {
				t.Fatalf("%s: malformed claim %+v", a.Name, cl)
			}
		}
	}
}
