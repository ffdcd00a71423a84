package npb

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"ookami/internal/omp"
	"ookami/internal/rng"
)

// makeaReference is makea as a map per row: every term of every vector's
// outer product is added into rows[r][c] in vector order, then the
// diagonal term, then the sorted columns are emitted.
func makeaReference(n, nonzer int, shift float64, seed uint64) *SparseMatrix {
	const rcond = 0.1
	g := rng.NewLCG(seed)
	rows := make([]map[int]float64, n)
	for i := range rows {
		rows[i] = make(map[int]float64, 2*nonzer)
	}
	ratio := math.Pow(rcond, 1/float64(n))
	w := 1.0
	var idx []int
	var val []float64
	seen := make(map[int]bool, nonzer+1)
	for i := 0; i < n; i++ {
		idx, val = idx[:0], val[:0]
		clear(seen)
		for len(idx) < nonzer {
			p := int(g.Next() * float64(n))
			if p >= n || seen[p] {
				continue
			}
			seen[p] = true
			idx = append(idx, p)
			val = append(val, 2*g.Next()-1)
		}
		if !seen[i] {
			idx = append(idx, i)
			val = append(val, 0.5)
		}
		norm := 0.0
		for _, v := range val {
			norm += v * v
		}
		norm = 1 / math.Sqrt(norm)
		for a := range idx {
			for b := range idx {
				rows[idx[a]][idx[b]] += w * val[a] * norm * val[b] * norm
			}
		}
		w *= ratio
	}
	for i := 0; i < n; i++ {
		rows[i][i] += shift + 1
	}
	m := &SparseMatrix{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		cols := make([]int, 0, len(rows[i]))
		for c := range rows[i] {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		for _, c := range cols {
			m.ColIdx = append(m.ColIdx, c)
			m.Values = append(m.Values, rows[i][c])
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

// mulVecReference is y = A x one row at a time, each row summed in
// column order.
func mulVecReference(tm *omp.Team, m *SparseMatrix, y, x []float64) {
	tm.ForRange(0, m.N, omp.Static, 0, func(a, b int) {
		for i := a; i < b; i++ {
			s := 0.0
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				s += m.Values[k] * x[m.ColIdx[k]]
			}
			y[i] = s
		}
	})
}

// cgReference is CG.RunFull on makeaReference's matrix with
// mulVecReference in the inner solve.
func cgReference(c Class, tm *omp.Team) CGOutput {
	n, nonzer, niter, shift := cgParams(c)
	m := makeaReference(n, nonzer, shift, 314159265)
	x, z, r, p, q := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	var zeta, resid float64
	for it := 0; it < niter; it++ {
		for i := range z {
			z[i], r[i], p[i] = 0, x[i], x[i]
		}
		rho := dot(tm, r, r)
		for range 25 {
			mulVecReference(tm, m, q, p)
			alpha := rho / dot(tm, p, q)
			axpy(tm, z, p, alpha)
			axpy(tm, r, q, -alpha)
			rho0 := rho
			rho = dot(tm, r, r)
			beta := rho / rho0
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
		}
		mulVecReference(tm, m, q, z)
		for i := range r {
			r[i] = x[i] - q[i]
		}
		resid = math.Sqrt(dot(tm, r, r))
		zeta = shift + 1/dot(tm, x, z)
		norm := 1 / math.Sqrt(dot(tm, z, z))
		for i := range x {
			x[i] = z[i] * norm
		}
	}
	return CGOutput{Zeta: zeta, Residual: resid, NNZ: m.NNZ()}
}

// dot is a ReduceSum region over a.b: the reduction CG's solve
// reproduces from its per-thread partials.
func dot(team *omp.Team, a, b []float64) float64 {
	return team.ReduceSum(0, len(a), func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	})
}

// axpy is y += alpha x as a Static ForRange region.
func axpy(team *omp.Team, y, x []float64, alpha float64) {
	team.ForRange(0, len(y), omp.Static, 0, func(a, b int) {
		for i := a; i < b; i++ {
			y[i] += alpha * x[i]
		}
	})
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCGMatchesReferenceLoop holds makea to the bits of the map-per-row
// assembly and CG.RunFull to the bits of the one-row SpMV, at classes S
// and W on 1, 2 and 4 threads (W skipped under -short and -race).
func TestCGMatchesReferenceLoop(t *testing.T) {
	classes := []Class{ClassS, ClassW}
	if testing.Short() || raceEnabled {
		classes = classes[:1]
	}
	for _, c := range classes {
		n, nonzer, _, shift := cgParams(c)
		got, want := makea(n, nonzer, shift, 314159265), makeaReference(n, nonzer, shift, 314159265)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || !sameBits(got.Values, want.Values) {
			t.Errorf("class %v: makea differs from the map-per-row assembly", c)
		}
		for _, threads := range []int{1, 2, 4} {
			got, want := NewCG().RunFull(c, team(threads)), cgReference(c, team(threads))
			if !sameBits([]float64{got.Zeta, got.Residual}, []float64{want.Zeta, want.Residual}) || got.NNZ != want.NNZ {
				t.Errorf("class %v, %d threads: %+v, reference loop %+v", c, threads, got, want)
			}
		}
	}
}

// FuzzMulVecMatchesRowLoop builds a CSR matrix of 0–64 rows from the
// fuzz bytes (ragged and empty rows, odd row counts) and holds the paired
// SpMV to the one-row loop's bits on teams of 1, 2 and 3.
//
// Byte 0 picks the row count; each following byte is one row's length
// (mod 33, rows past the bytes are empty); the remaining bytes, eight at
// a time, seed the columns and values.
func FuzzMulVecMatchesRowLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 65
		data = data[1:]
		m := &SparseMatrix{N: n, RowPtr: make([]int, n+1)}
		for i := 0; i < n; i++ {
			l := 0
			if i < len(data) {
				l = int(data[i]) % 33
			}
			m.RowPtr[i+1] = m.RowPtr[i] + l
		}
		data = data[min(n, len(data)):]
		s := uint64(1)
		for len(data) >= 8 {
			s = (s ^ binary.LittleEndian.Uint64(data)) * 0x9E3779B97F4A7C15
			data = data[8:]
		}
		next := func() uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return s >> 11
		}
		for range m.RowPtr[n] {
			m.ColIdx = append(m.ColIdx, int(next()%uint64(max(n, 1))))
			m.Values = append(m.Values, float64(int64(next()))/(1<<40)-1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(int64(next()))/(1<<50) - 2
		}
		want := make([]float64, n)
		mulVecReference(team(1), m, want, x)
		for threads := 1; threads <= 3; threads++ {
			got := make([]float64, n)
			m.MulVec(team(threads), got, x)
			if !sameBits(got, want) {
				t.Fatalf("%d rows, row pointers %v, %d threads: y = %v, row loop %v", n, m.RowPtr, threads, got, want)
			}
		}
	})
}

// TestCGRunFullAllocations holds a class S RunFull to a few allocations
// per outer iteration at 1 and 2 threads: the matrix, the work vectors
// and one parallel region per outer iteration, no region per vector
// operation.
func TestCGRunFullAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	for _, threads := range []int{1, 2} {
		tm := team(threads)
		allocs := testing.AllocsPerRun(1, func() { NewCG().RunFull(ClassS, tm) })
		if allocs >= 1000 {
			t.Errorf("%d threads: %v allocations per class S RunFull, want under 1,000", threads, allocs)
		}
	}
}
