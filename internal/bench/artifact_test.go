package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedArtifactsRoundTrip is the proof of "byte-compatible keys":
// every committed results/BENCH_*.json parses with the one Parse,
// re-marshals byte-identically, and carries exactly its table entry's
// columns in order — so a fresh Run (which validates rows against the same
// columns) emits the same key set in the same order as the committed file.
func TestCommittedArtifactsRoundTrip(t *testing.T) {
	for i := range Artifacts {
		a := &Artifacts[i]
		t.Run(a.Name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "results", a.File))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			out, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%s does not re-marshal byte-identically:\n%s", a.File, out)
			}
			if len(rep.Records) == 0 {
				t.Fatalf("%s has no records", a.File)
			}
			for _, rec := range rep.Records {
				if rec.Op == "" || len(rec.Fields) != len(a.Columns) {
					t.Fatalf("%s row %q has %d fields, table has %d columns", a.File, rec.Op, len(rec.Fields), len(a.Columns))
				}
				for j, f := range rec.Fields {
					if f.Key != a.Columns[j].Key {
						t.Fatalf("%s row %q field %d is %q, table says %q", a.File, rec.Op, j, f.Key, a.Columns[j].Key)
					}
					if _, isLabel := f.Val.(string); isLabel != (a.Columns[j].Prec < 0) {
						t.Fatalf("%s row %q field %q: label/number kind disagrees with the table", a.File, rec.Op, f.Key)
					}
				}
			}
			if text := a.Text(rep); !strings.Contains(text, rep.Records[0].Op) || !strings.Contains(text, a.Columns[0].Head) {
				t.Fatalf("text table missing rows or headers:\n%s", text)
			}
		})
	}
}

func TestParseRejectsNestedValues(t *testing.T) {
	if _, err := Parse([]byte(`{"scale":"quick","records":[{"op":"x","v":[1]}]}`)); err == nil {
		t.Fatal("a nested field value must not parse as a record")
	}
}

// TestGateTable drives the one Gate over synthetic reports.
func TestGateTable(t *testing.T) {
	art := &Artifact{
		Name: "synthetic",
		Columns: []Column{
			{Key: "ns_op", Head: "ns/op", Gate: Rule{Dir: Lower, Factor: 1.8}},
			{Key: "allocs_op", Head: "allocs/op", Prec: 2, Gate: Rule{Dir: Lower, Factor: 1.5, Slack: 3}},
			{Key: "rate", Head: "rate/s", Gate: Rule{Dir: Higher, Factor: 1.8}},
			{Key: "p99_us", Head: "p99_us", Gate: Rule{Dir: Lower, Factor: 5, Only: "a"}},
			{Key: "max_us", Head: "max_us"},
		},
		Claims: []Claim{{Row: "a", Col: "rate", Dir: Higher, Bound: 2, Base: "b", Why: "a must double b"}},
	}
	rec := func(op string, ns, allocs, rate, p99, maxUs float64) Record {
		return row(op, "ns_op", ns, "allocs_op", allocs, "rate", rate, "p99_us", p99, "max_us", maxUs)
	}
	report := func(scale string, recs ...Record) *Report {
		return &Report{Commit: "abc1234", Scale: scale, Records: recs}
	}
	committed := report("quick", rec("a", 1000, 2, 9000, 100, 50), rec("b", 1000, 0, 1800, 100, 50))

	for _, tc := range []struct {
		name  string
		fresh *Report
		want  []string // substrings of the error; empty = must pass
	}{
		{"identical", report("quick", committed.Records...), nil},
		{"scale mismatch", report("full", committed.Records...), []string{`scale "full"`, `"quick"`}},
		{"row missing from fresh", report("quick", rec("a", 1000, 2, 9000, 100, 50)), []string{"b: row missing from fresh run"}},
		{"lower-better at its factor passes", report("quick", rec("a", 1800, 2, 9000, 100, 50), committed.Records[1]), nil},
		{"lower-better past its factor", report("quick", rec("a", 1801, 2, 9000, 100, 50), committed.Records[1]), []string{"a: ns/op 1801 vs committed 1000"}},
		{"higher-better at committed/factor passes", report("quick", rec("a", 1000, 2, 5000, 100, 50), committed.Records[1]), nil},
		{"higher-better below committed/factor", report("quick", rec("a", 1000, 2, 4999, 100, 50), committed.Records[1]), []string{"a: rate/s 4999 vs committed 9000"}},
		{"allocs at factor*old+slack passes", report("quick", rec("a", 1000, 6, 9000, 100, 50), rec("b", 1000, 3, 1800, 100, 50)), nil},
		{"allocs past factor*old+slack", report("quick", rec("a", 1000, 6.01, 9000, 100, 50), committed.Records[1]), []string{"a: allocs/op 6.01 vs committed 2.00"}},
		{"allocs past the slack from a zero baseline", report("quick", committed.Records[0], rec("b", 1000, 3.01, 1800, 100, 50)), []string{"b: allocs/op 3.01 vs committed 0.00"}},
		{"row-restricted rule gates only its row", report("quick", rec("a", 1000, 2, 9000, 501, 50), rec("b", 1000, 0, 1800, 9999, 50)), []string{"a: p99_us 501 vs committed 100"}},
		{"ungated column ignored", report("quick", rec("a", 1000, 2, 9000, 100, 1e9), rec("b", 1000, 0, 1800, 100, 1e9)), nil},
		{"failing claim appended", report("quick", rec("a", 1000, 2, 6000, 100, 50), rec("b", 1000, 0, 3001, 100, 50)), []string{"synthetic claims failed", "a must double b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table, err := art.Gate(tc.fresh, committed)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("gate failed: %v\n%s", err, table)
				}
				for _, needle := range []string{"abc1234", "a ", "ns/op", "<=old*1.8", "<=old*1.5+3", ">=old/1.8", "ok"} {
					if !strings.Contains(table, needle) {
						t.Fatalf("gate table missing %q:\n%s", needle, table)
					}
				}
				if strings.Contains(table, "max_us") {
					t.Fatalf("ungated column in the gate table:\n%s", table)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed, want failure mentioning %q\n%s", tc.want, table)
			}
			for _, needle := range tc.want {
				if !strings.Contains(err.Error(), needle) {
					t.Fatalf("gate error missing %q:\n%v", needle, err)
				}
			}
		})
	}
}

// TestCheckClaims covers what the gate cases do not: absolute bounds, prefix
// rows, a missing row, and a ratio claim skipped for want of a baseline.
func TestCheckClaims(t *testing.T) {
	art := &Artifact{Name: "synthetic", Claims: []Claim{
		{Row: "x/c*", Col: "allocs_op", Dir: Lower, Bound: 0.5, Why: "chunked rows must not allocate"},
		{Row: "x/on", Col: "frac", Dir: Higher, Bound: 0.5, Why: "lane engaged"},
		{Row: "x/on", Col: "frac", Dir: Higher, Bound: 1.3, Base: "x/off", Why: "ratio"},
	}}
	good := &Report{Records: []Record{
		row("x/c1", "allocs_op", 0.5), row("x/c2", "allocs_op", 0.0), row("x/blob", "allocs_op", 40.0),
		row("x/on", "frac", 0.5), row("x/off", "frac", 0.0), // zero baseline: the ratio claim is skipped
	}}
	if err := art.CheckClaims(good); err != nil {
		t.Fatal(err)
	}
	bad := &Report{Records: []Record{row("x/c1", "allocs_op", 0.51), row("x/off", "frac", 1.0)}}
	err := art.CheckClaims(bad)
	if err == nil {
		t.Fatal("claims passed on a bad report")
	}
	for _, needle := range []string{"x/c1 allocs_op 0.51", "x/on: row missing"} {
		if !strings.Contains(err.Error(), needle) {
			t.Fatalf("claims error missing %q:\n%v", needle, err)
		}
	}
}

// TestArtifactsTable checks each entry is complete and its claims name
// columns the artifact has (a typo there would make a claim vacuous).
func TestArtifactsTable(t *testing.T) {
	for i := range Artifacts {
		a := &Artifacts[i]
		if a.Name == "" || a.Measure == nil || len(a.Columns) == 0 || !strings.HasPrefix(a.File, "BENCH_") {
			t.Fatalf("incomplete entry %+v", a)
		}
		cols := map[string]bool{}
		for _, c := range a.Columns {
			cols[c.Key] = true
		}
		for _, cl := range a.Claims {
			if !cols[cl.Col] || cl.Dir == Ungated || cl.Why == "" {
				t.Fatalf("%s: malformed claim %+v", a.Name, cl)
			}
		}
	}
}
