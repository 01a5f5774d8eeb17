// Package stats provides the small statistical helpers used by the benchmark
// harness: summaries (mean, standard deviation, min, max) over repeated trials
// and labelled series of (x, y, yerr) points that render as the rows of the
// paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a set of repeated measurements of one quantity.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs. An empty slice yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		// Sample standard deviation, matching how error bars are usually
		// reported for a handful of repetitions.
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) float64 { return Summarize(xs).Stddev }

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between the two nearest ranks (the C = 1 variant, as in
// numpy's default): p maps to the fractional rank p/100*(n-1) and the value
// interpolates between the sorted neighbours. p <= 0 yields the minimum,
// p >= 100 the maximum. Returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	rank := p / 100 * float64(len(ys)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(ys) {
		return ys[lo]
	}
	return ys[lo]*(1-frac) + ys[lo+1]*frac
}

// Point is one (x, y) sample with an error bar.
type Point struct {
	X    float64
	Y    float64
	Yerr float64
}

// Series is a labelled sequence of points: one line in a figure.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a point to the series.
func (s *Series) Add(x, y, yerr float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Yerr: yerr})
}

// PeakY returns the maximum Y across the series' points (0 if empty).
func (s *Series) PeakY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	peak := s.Points[0].Y
	for _, p := range s.Points[1:] {
		if p.Y > peak {
			peak = p.Y
		}
	}
	return peak
}

// Figure is a set of series plus axis labels, sufficient to regenerate one of
// the paper's plots as text.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends a new empty series with the given label and returns it.
func (f *Figure) AddSeries(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// Render formats the figure as an aligned text table: one block per series,
// one row per point.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	fmt.Fprintf(&b, "# x=%s  y=%s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "## %s\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%-16.6g %-16.6g %-16.6g\n", p.X, p.Y, p.Yerr)
		}
	}
	return b.String()
}
