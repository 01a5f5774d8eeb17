package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// One schema, one gate. Every results/BENCH_*.json is a Report: provenance
// plus flat records. What distinguishes the artifacts — their columns, which
// columns are gated against the committed baseline and how tightly, the
// structural claims a fresh measurement must satisfy, and the harness that
// measures the rows — is data in the Artifacts table (artifacts.go), served
// by the one Run / Text / JSON / Parse / CheckClaims / Gate below.

// Report is a BENCH_*.json artifact: rows plus provenance.
type Report struct {
	Commit    string   `json:"commit"`
	Generated string   `json:"generated"`
	Scale     string   `json:"scale"`
	Records   []Record `json:"records"`
}

// Record is one measured row. It marshals flat — "op" first, then the
// fields in order — so a row reads {"op": ..., "ns_op": ..., ...}.
type Record struct {
	Op     string
	Fields []Field
}

// Field is one named value of a Record: a float64, or a string label.
type Field struct {
	Key string
	Val any
}

// point is one artifact row to measure: its op and the harness parameters.
type point[P any] struct {
	op string
	p  P
}

// row builds a Record from alternating key, value arguments (float64, int
// or string values), in the artifact's column order.
func row(op string, kv ...any) Record {
	rec := Record{Op: op, Fields: make([]Field, 0, len(kv)/2)}
	for i := 0; i+1 < len(kv); i += 2 {
		v := kv[i+1]
		if n, ok := v.(int); ok {
			v = float64(n)
		}
		rec.Fields = append(rec.Fields, Field{Key: kv[i].(string), Val: v})
	}
	return rec
}

// Get returns the value of field key, or nil when the record has none.
func (r Record) Get(key string) any {
	for _, f := range r.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return nil
}

// Num returns the numeric field key, or 0 when it is absent or a label.
func (r Record) Num(key string) float64 {
	n, _ := r.Get(key).(float64)
	return n
}

// MarshalJSON renders the record as one flat object: op, then the fields.
func (r Record) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range append([]Field{{Key: "op", Val: r.Op}}, r.Fields...) {
		k, _ := json.Marshal(f.Key)
		v, err := json.Marshal(f.Val)
		if err != nil {
			return nil, fmt.Errorf("bench: record %s field %s: %w", r.Op, f.Key, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON decodes one flat object, keeping the keys in file order.
func (r *Record) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("bench: record is not a JSON object")
	}
	*r = Record{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return err
		}
		val, err := dec.Token()
		if err != nil {
			return err
		}
		label, isLabel := val.(string)
		if _, isNum := val.(float64); !isNum && !isLabel {
			return fmt.Errorf("bench: record field %v: want a string or a number, got %v", key, val)
		}
		if key == "op" && isLabel {
			r.Op = label
			continue
		}
		r.Fields = append(r.Fields, Field{Key: key.(string), Val: val})
	}
	return nil
}

// JSON renders the report as its BENCH_*.json file.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Parse decodes a committed BENCH_*.json.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: bad artifact: %w", err)
	}
	return &r, nil
}

// Dir says which way a metric is better. It orients both gate rules (fresh
// vs committed) and claims (fresh vs a bound); its value is the relation a
// passing measurement has to its bound.
type Dir string

const (
	Ungated Dir = ""   // recorded, never compared
	Lower   Dir = "<=" // lower is better: fresh must not exceed the bound
	Higher  Dir = ">=" // higher is better: fresh must not fall below the bound
)

// violates reports whether v is on the wrong side of bound.
func (d Dir) violates(v, bound float64) bool {
	return (d == Lower && v > bound) || (d == Higher && v < bound)
}

// Rule is a column's regression gate against the committed row. Lower:
// fresh <= committed*Factor + Slack. Higher: fresh >= committed/Factor.
// A bound of zero (no committed value, no slack) gates nothing.
type Rule struct {
	Dir    Dir
	Factor float64
	Slack  float64
	Only   string // when set, gate this op's row only
}

// bound is the worst fresh value the rule accepts for a committed value.
func (g Rule) bound(committed float64) float64 {
	if g.Dir == Higher {
		return committed / g.Factor
	}
	return committed*g.Factor + g.Slack
}

// String renders the rule for the gate table, e.g. "<=old*1.5+3".
func (g Rule) String() string {
	switch {
	case g.Dir == Higher:
		return fmt.Sprintf("%sold/%g", g.Dir, g.Factor)
	case g.Slack != 0:
		return fmt.Sprintf("%sold*%g+%g", g.Dir, g.Factor, g.Slack)
	}
	return fmt.Sprintf("%sold*%g", g.Dir, g.Factor)
}

// Column is one record field: its JSON key, its header and precision in the
// text table, and its gate rule.
type Column struct {
	Key  string
	Head string
	Prec int // decimals in text; -1 marks a string label
	Gate Rule
}

// Claim is one structural statement a fresh report must satisfy on its own
// (no committed baseline involved): Col of row Row is at least (Higher) or
// at most (Lower) Bound — an absolute value, or a multiple of the same
// column of row Base. Row ending in "*" matches every op with that prefix.
// A ratio claim whose Base row measured nothing is skipped.
type Claim struct {
	Row, Col string
	Dir      Dir
	Bound    float64
	Base     string
	Why      string
}

// Artifact describes one BENCH_*.json: where it goes, what its rows hold,
// how they are measured, and what is checked about them.
type Artifact struct {
	Name    string // `experiments` target
	File    string // file name under the -out directory
	InAll   bool   // part of `experiments all` (a full-scale sweep, not a quick-pinned baseline)
	Columns []Column
	Claims  []Claim
	// Measure runs the harness and returns one Record per row, fields in
	// Columns order.
	Measure func(Scale) ([]Record, error)
}

// Gated reports whether any column is compared against a committed baseline
// (the artifacts `experiments bench-gate` re-measures).
func (a *Artifact) Gated() bool {
	for _, c := range a.Columns {
		if c.Gate.Dir != Ungated {
			return true
		}
	}
	return false
}

// gitCommit resolves the working tree's short commit hash, or "unknown"
// outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Run measures the artifact at the given scale and checks its claims. On a
// claims failure the report is returned alongside the error so the caller
// can print the rows.
func (a *Artifact) Run(sc Scale, scaleName string) (*Report, error) {
	recs, err := a.Measure(sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	for _, rec := range recs {
		if len(rec.Fields) != len(a.Columns) {
			return nil, fmt.Errorf("bench: %s row %s has %d fields, want %d", a.Name, rec.Op, len(rec.Fields), len(a.Columns))
		}
		for i, f := range rec.Fields {
			if f.Key != a.Columns[i].Key {
				return nil, fmt.Errorf("bench: %s row %s field %d is %q, want %q", a.Name, rec.Op, i, f.Key, a.Columns[i].Key)
			}
		}
	}
	rep := &Report{
		Commit:    gitCommit(),
		Generated: time.Now().Format(time.RFC3339),
		Scale:     scaleName,
		Records:   recs,
	}
	return rep, a.CheckClaims(rep)
}

// Text renders the rows as an aligned table for the experiments output.
func (a *Artifact) Text(r *Report) string {
	opw := len("op")
	for _, rec := range r.Records {
		opw = max(opw, len(rec.Op))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s rows (commit %s)\n%-*s", a.Name, r.Commit, opw, "op")
	for _, c := range a.Columns {
		fmt.Fprintf(&b, " %*s", c.width(), c.Head)
	}
	b.WriteByte('\n')
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "%-*s", opw, rec.Op)
		for _, c := range a.Columns {
			if c.Prec < 0 {
				fmt.Fprintf(&b, " %*v", c.width(), rec.Get(c.Key))
			} else {
				fmt.Fprintf(&b, " %*.*f", c.width(), c.Prec, rec.Num(c.Key))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// width is the column's text width: room for the header and ~9 digits.
func (c Column) width() int { return max(len(c.Head), 10+c.Prec) }

// CheckClaims validates the artifact's structural claims on a fresh report.
func (a *Artifact) CheckClaims(r *Report) error {
	byOp := map[string]Record{}
	for _, rec := range r.Records {
		byOp[rec.Op] = rec
	}
	var failures []string
	for _, cl := range a.Claims {
		bound, against := cl.Bound, ""
		if cl.Base != "" {
			base := byOp[cl.Base].Num(cl.Col)
			if base <= 0 {
				continue
			}
			bound = base * cl.Bound
			against = fmt.Sprintf(" = %gx %s %.4g", cl.Bound, cl.Base, base)
		}
		var rows []Record
		if prefix, ok := strings.CutSuffix(cl.Row, "*"); ok {
			for _, rec := range r.Records {
				if strings.HasPrefix(rec.Op, prefix) {
					rows = append(rows, rec)
				}
			}
		} else if rec, ok := byOp[cl.Row]; ok {
			rows = []Record{rec}
		} else {
			failures = append(failures, fmt.Sprintf("%s: row missing (%s)", cl.Row, cl.Why))
		}
		for _, rec := range rows {
			if v := rec.Num(cl.Col); cl.Dir.violates(v, bound) {
				failures = append(failures, fmt.Sprintf("%s %s %.4g, want %s %.4g%s (%s)",
					rec.Op, cl.Col, v, cl.Dir, bound, against, cl.Why))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %s claims failed:\n  %s", a.Name, strings.Join(failures, "\n  "))
	}
	return nil
}

// Gate compares a fresh measurement against the committed artifact, one
// line per (row, gated column), and re-validates the structural claims on
// the fresh rows. Both reports must come from the same scale: totals differ
// otherwise and the rows are not comparable.
func (a *Artifact) Gate(fresh, committed *Report) (string, error) {
	if fresh.Scale != committed.Scale {
		return "", fmt.Errorf("bench: %s gate scale %q vs committed artifact scale %q — regenerate the artifact at the gate's scale",
			a.Name, fresh.Scale, committed.Scale)
	}
	byOp := map[string]Record{}
	opw := len("op")
	for _, rec := range fresh.Records {
		byOp[rec.Op] = rec
		opw = max(opw, len(rec.Op))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s gate vs committed commit %s\n", a.Name, committed.Commit)
	fmt.Fprintf(&b, "%-*s %-10s %14s %14s %14s %8s\n", opw, "op", "metric", "new", "old", "limit", "verdict")
	var failures []string
	for _, old := range committed.Records {
		cur, ok := byOp[old.Op]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: row missing from fresh run", old.Op))
			continue
		}
		for _, c := range a.Columns {
			g := c.Gate
			if g.Dir == Ungated || (g.Only != "" && g.Only != old.Op) {
				continue
			}
			was, now := old.Num(c.Key), cur.Num(c.Key)
			verdict := "ok"
			if bound := g.bound(was); bound > 0 && g.Dir.violates(now, bound) {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s %.*f vs committed %.*f (limit %s)",
					old.Op, c.Head, c.Prec, now, c.Prec, was, g))
			}
			fmt.Fprintf(&b, "%-*s %-10s %14.*f %14.*f %14s %8s\n", opw, old.Op, c.Head, c.Prec, now, c.Prec, was, g, verdict)
		}
	}
	if err := a.CheckClaims(fresh); err != nil {
		failures = append(failures, err.Error())
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("bench: %s regression gate failed:\n  %s", a.Name, strings.Join(failures, "\n  "))
	}
	return b.String(), nil
}
