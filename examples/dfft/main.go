// Dfft: a distributed 2-D fast Fourier transform over a row-partitioned
// complex grid — the HPX communication benchmark of arXiv 2504.03657, which
// stresses collectives in a way tree-structured octree traffic does not.
// Each locality FFTs its local rows, the grid is transposed with the
// runtime's pairwise AllToAll (the bandwidth-bound step that dominates
// distributed FFTs), the rows — now columns — are FFTed again, and the
// spectrum is checked three ways: a Parseval energy identity whose spectral
// sum is a tree Reduce, a full comparison against a serial 2-D FFT at the
// root, and direct-DFT spot checks of individual bins.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"time"

	"hpxgo/internal/core"
	"hpxgo/internal/wire"
)

const (
	localities = 4
	gridN      = 64 // rows = cols = gridN; gridN/localities rows per locality
	rpl        = gridN / localities
	seed       = 0x5eed
)

// splitmix64 drives the deterministic input grid.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// sample returns the deterministic input value at (row, col).
func sample(row, col int) complex128 {
	h := splitmix64(seed ^ uint64(row)<<20 ^ uint64(col))
	re := float64(h>>11)/float64(1<<53)*2 - 1
	h = splitmix64(h)
	im := float64(h>>11)/float64(1<<53)*2 - 1
	return complex(re, im)
}

// fft runs an in-place iterative radix-2 Cooley-Tukey transform
// (unnormalized, decimation in time). len(x) must be a power of two.
func fft(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for span := 2; span <= n; span <<= 1 {
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(span)))
		for s := 0; s < n; s += span {
			t := complex(1, 0)
			for k := s; k < s+span/2; k++ {
				u, v := x[k], x[k+span/2]*t
				x[k], x[k+span/2] = u+v, u-v
				t *= w
			}
		}
	}
}

// rowsToBytes flattens rows into interleaved (re, im) float64s.
func rowsToBytes(rows [][]complex128) []byte {
	fs := make([]float64, 0, 2*len(rows)*len(rows[0]))
	for _, r := range rows {
		for _, c := range r {
			fs = append(fs, real(c), imag(c))
		}
	}
	return wire.F64s(fs)
}

// bytesToRows rebuilds n rows of interleaved (re, im) float64s.
func bytesToRows(b []byte, n int) ([][]complex128, error) {
	fs, err := wire.ToF64s(b)
	if err != nil {
		return nil, err
	}
	if len(fs)%(2*n) != 0 {
		return nil, fmt.Errorf("dfft: %d floats do not form %d rows", len(fs), n)
	}
	w := len(fs) / (2 * n)
	rows := make([][]complex128, n)
	for i := range rows {
		rows[i] = make([]complex128, w)
		for j := range rows[i] {
			rows[i][j] = complex(fs[(i*w+j)*2], fs[(i*w+j)*2+1])
		}
	}
	return rows, nil
}

// dfftState is one locality's block of rows (original rows before the
// transpose; transposed rows — i.e. columns — after).
type dfftState struct {
	rows [][]complex128
}

func main() {
	rt, err := core.NewRuntime(core.Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		Parcelport:         "lci",
		// Aggregation on: the transpose's many small blocks are exactly the
		// traffic the sender-side bundling layer exists for.
		Aggregation: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	states := make([]*dfftState, localities)
	for i := range states {
		states[i] = &dfftState{}
	}

	// dfft_init: fill this locality's row block deterministically.
	rt.MustRegisterAction("dfft_init", func(loc *core.Locality, args [][]byte) [][]byte {
		st := states[loc.ID()]
		st.rows = make([][]complex128, rpl)
		for i := range st.rows {
			st.rows[i] = make([]complex128, gridN)
			for j := range st.rows[i] {
				st.rows[i][j] = sample(loc.ID()*rpl+i, j)
			}
		}
		return nil
	})

	// dfft_rows: FFT every local row in place.
	rt.MustRegisterAction("dfft_rows", func(loc *core.Locality, args [][]byte) [][]byte {
		for _, r := range states[loc.ID()].rows {
			fft(r)
		}
		return nil
	})

	// dfft_pack (AllToAll produce): block d carries my rows restricted to
	// destination d's column range — the (rpl x rpl) tile it needs to
	// assemble its transposed rows.
	rt.MustRegisterAction("dfft_pack", func(loc *core.Locality, args [][]byte) [][]byte {
		st := states[loc.ID()]
		blocks := make([][]byte, localities)
		for d := 0; d < localities; d++ {
			tile := make([][]complex128, rpl)
			for i := range tile {
				tile[i] = st.rows[i][d*rpl : (d+1)*rpl]
			}
			blocks[d] = rowsToBytes(tile)
		}
		return blocks
	})

	// dfft_unpack (AllToAll consume): args[s] is source s's tile; transposed
	// row t (global column loc*rpl+t) collects element [i][t] of every tile,
	// ordered by global row s*rpl+i.
	rt.MustRegisterAction("dfft_unpack", func(loc *core.Locality, args [][]byte) [][]byte {
		st := states[loc.ID()]
		next := make([][]complex128, rpl)
		for t := range next {
			next[t] = make([]complex128, gridN)
		}
		for s := 0; s < localities; s++ {
			tile, err := bytesToRows(args[s], rpl)
			if err != nil {
				log.Fatalf("dfft_unpack from %d: %v", s, err)
			}
			for i := 0; i < rpl; i++ {
				for t := 0; t < rpl; t++ {
					next[t][s*rpl+i] = tile[i][t]
				}
			}
		}
		st.rows = next
		return nil
	})

	// dfft_energy: local contribution to the spectral energy sum.
	rt.MustRegisterAction("dfft_energy", func(loc *core.Locality, args [][]byte) [][]byte {
		var e float64
		for _, r := range states[loc.ID()].rows {
			for _, c := range r {
				e += real(c)*real(c) + imag(c)*imag(c)
			}
		}
		return [][]byte{wire.F64(e)}
	})

	// dfft_dump: this locality's rows, for the root's full verification.
	rt.MustRegisterAction("dfft_dump", func(loc *core.Locality, args [][]byte) [][]byte {
		return [][]byte{rowsToBytes(states[loc.ID()].rows)}
	})

	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	// The distributed transform: row FFTs, all-to-all transpose, row FFTs
	// again. The result is the transposed 2-D spectrum: locality d holds
	// transposed rows (= spectrum columns) d*rpl .. (d+1)*rpl-1.
	timeout := time.Minute
	start := time.Now()
	for _, step := range []string{"dfft_init", "dfft_rows"} {
		if err := rt.Broadcast(0, timeout, step); err != nil {
			log.Fatal(err)
		}
	}
	if err := rt.AllToAll(timeout, "dfft_pack", "dfft_unpack"); err != nil {
		log.Fatal(err)
	}
	if err := rt.Broadcast(0, timeout, "dfft_rows"); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	// Check 1 — Parseval: sum|X|^2 = N * sum|x|^2 for the unnormalized DFT,
	// with the spectral sum folded up the binomial tree to locality 0, the
	// only locality that reads it.
	eres, err := rt.Reduce(0, timeout, "dfft_energy", wire.SumF64Fold)
	if err != nil {
		log.Fatal(err)
	}
	specEnergy, _ := wire.ToF64(eres[0])
	var inEnergy float64
	for r := 0; r < gridN; r++ {
		for c := 0; c < gridN; c++ {
			v := sample(r, c)
			inEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	wantEnergy := float64(gridN*gridN) * inEnergy
	if rel := math.Abs(specEnergy-wantEnergy) / wantEnergy; rel > 1e-9 {
		log.Fatalf("Parseval MISMATCH: spectral energy %g, want %g (rel err %g)", specEnergy, wantEnergy, rel)
	}

	// Check 2 — full spectrum vs a serial 2-D FFT (row FFTs, then column
	// FFTs directly — no transpose trick, so the reference path is
	// independent of the distributed algorithm's structure).
	dump, err := rt.Gather(0, timeout, "dfft_dump")
	if err != nil {
		log.Fatal(err)
	}
	spectrum := make([][]complex128, gridN) // spectrum[r][c], un-transposed
	for i := range spectrum {
		spectrum[i] = make([]complex128, gridN)
	}
	for d, blobs := range dump {
		tRows, err := bytesToRows(blobs[0], rpl)
		if err != nil {
			log.Fatal(err)
		}
		for t, row := range tRows {
			for r, v := range row {
				spectrum[r][d*rpl+t] = v
			}
		}
	}
	ref := make([][]complex128, gridN)
	for r := range ref {
		ref[r] = make([]complex128, gridN)
		for c := range ref[r] {
			ref[r][c] = sample(r, c)
		}
		fft(ref[r])
	}
	col := make([]complex128, gridN)
	for c := 0; c < gridN; c++ {
		for r := 0; r < gridN; r++ {
			col[r] = ref[r][c]
		}
		fft(col)
		for r := 0; r < gridN; r++ {
			ref[r][c] = col[r]
		}
	}
	var maxErr float64
	for r := 0; r < gridN; r++ {
		for c := 0; c < gridN; c++ {
			if e := cmplx.Abs(spectrum[r][c] - ref[r][c]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 1e-8 {
		log.Fatalf("spectrum MISMATCH: max abs error %g vs serial reference", maxErr)
	}

	// Check 3 — direct DFT spot checks: a few bins evaluated from the
	// definition, independent of any FFT code at all.
	for _, bin := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {7, 13}, {gridN - 1, gridN - 1}} {
		kr, kc := bin[0], bin[1]
		var want complex128
		for r := 0; r < gridN; r++ {
			for c := 0; c < gridN; c++ {
				ph := -2 * math.Pi * (float64(kr*r)/gridN + float64(kc*c)/gridN)
				want += sample(r, c) * cmplx.Exp(complex(0, ph))
			}
		}
		if e := cmplx.Abs(spectrum[kr][kc] - want); e > 1e-7 {
			log.Fatalf("direct DFT MISMATCH at bin (%d,%d): error %g", kr, kc, e)
		}
	}

	fmt.Printf("distributed 2-D FFT of a %dx%d grid across %d localities in %v\n",
		gridN, gridN, localities, elapsed.Round(time.Microsecond))
	fmt.Printf("Parseval energy %.6g matches N*input energy; max spectrum error %.3g\n", specEnergy, maxErr)
	fmt.Println("verified: distributed FFT matches the serial reference and direct DFT")
}
