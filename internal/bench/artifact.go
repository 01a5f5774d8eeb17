package bench

import (
	"fmt"
	"strings"
)

// Artifacts: tables plus in-process claims. What distinguishes one artifact
// from another — its columns, the structural claims a measurement must
// satisfy, and the harness that measures the rows — is data in the
// Artifacts table (artifacts.go), served by the one Run / Text / CheckClaims
// below. Every claim compares numbers measured in the same process, so none
// depends on a committed baseline from another host.

// Record is one measured row: its op and its fields in column order.
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

// Dir says which way a claim's metric is better; its value is the relation
// a passing measurement has to its bound.
type Dir string

const (
	Lower  Dir = "<=" // lower is better: the value must not exceed the bound
	Higher Dir = ">=" // higher is better: the value must not fall below the bound
)

// violates reports whether v is on the wrong side of bound.
func (d Dir) violates(v, bound float64) bool {
	return (d == Lower && v > bound) || (d == Higher && v < bound)
}

// Column is one record field: its key, and its header and precision in the
// text table.
type Column struct {
	Key  string
	Head string
	Prec int // decimals in text; -1 marks a string label
}

// Claim is one structural statement a measurement must satisfy on its own:
// Col of row Row is at least (Higher) or at most (Lower) Bound — an absolute
// value, or a multiple of the same column of row Base, measured in the same
// run. Row ending in "*" matches every op with that prefix. A ratio claim
// whose Base row is missing or measured nothing fails.
type Claim struct {
	Row, Col string
	Dir      Dir
	Bound    float64
	Base     string
	Why      string
}

// Artifact describes one measured table: what its rows hold, how they are
// measured, and what is claimed about them.
type Artifact struct {
	Name    string // `experiments` target
	InAll   bool   // part of `experiments all` (a full-scale sweep)
	Columns []Column
	Claims  []Claim
	// Measure runs the harness and returns one Record per row, fields in
	// Columns order.
	Measure func(Scale) ([]Record, error)
}

// Run measures the artifact at the given scale and checks its claims. On a
// claims failure the rows are returned alongside the error so the caller
// can print them.
func (a *Artifact) Run(sc Scale) ([]Record, error) {
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
	return recs, a.CheckClaims(recs)
}

// Text renders the rows as an aligned table for the experiments output.
func (a *Artifact) Text(recs []Record) string {
	opw := len("op")
	for _, rec := range recs {
		opw = max(opw, len(rec.Op))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s rows\n%-*s", a.Name, opw, "op")
	for _, c := range a.Columns {
		fmt.Fprintf(&b, " %*s", c.width(), c.Head)
	}
	b.WriteByte('\n')
	for _, rec := range recs {
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

// CheckClaims validates the artifact's structural claims on measured rows.
func (a *Artifact) CheckClaims(recs []Record) error {
	byOp := map[string]Record{}
	for _, rec := range recs {
		byOp[rec.Op] = rec
	}
	var failures []string
	for _, cl := range a.Claims {
		bound, against := cl.Bound, ""
		if cl.Base != "" {
			base := byOp[cl.Base].Num(cl.Col)
			if base <= 0 {
				failures = append(failures, fmt.Sprintf("%s: base row %s has no %s to compare against (%s)", cl.Row, cl.Base, cl.Col, cl.Why))
				continue
			}
			bound = base * cl.Bound
			against = fmt.Sprintf(" = %gx %s %.4g", cl.Bound, cl.Base, base)
		}
		var rows []Record
		if prefix, ok := strings.CutSuffix(cl.Row, "*"); ok {
			for _, rec := range recs {
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
