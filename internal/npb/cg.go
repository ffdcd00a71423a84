package npb

import (
	"fmt"
	"math"
	"slices"

	"ookami/internal/omp"
	"ookami/internal/rng"
)

// CG estimates the smallest eigenvalue of a large sparse symmetric matrix
// with the shifted-inverse power method, using conjugate gradient for the
// inner solves — the NPB CG kernel. The matrix is built like NPB's makea:
// a sum of outer products of sparse random vectors with geometrically
// decreasing weights (condition number 1/rcond), plus a diagonal shift, so
// its extreme eigenvalues are controlled. Access to the matrix is through
// a compressed-sparse-row structure with randomly scattered column
// indices, giving the benchmark its cache-hostile gather behaviour.
//
// The RNG consumption order differs from the Fortran original, so official
// NPB zeta values do not apply; instead the tests verify against the
// analytically constructed spectrum and the CG invariants.
type CG struct{}

// NewCG returns the CG benchmark.
func NewCG() *CG { return &CG{} }

// Name returns "CG".
func (*CG) Name() string { return "CG" }

// cgParams returns (n, nonzerosPerRow, iterations, shift) per class,
// following the NPB tables (class C: 150000 rows, 15 nonzeros, 75 iters).
func cgParams(c Class) (n, nonzer, niter int, shift float64) {
	switch c {
	case ClassS:
		return 1400, 7, 15, 10
	case ClassW:
		return 7000, 8, 15, 12
	case ClassA:
		return 14000, 11, 15, 20
	case ClassB:
		return 75000, 13, 75, 60
	default: // ClassC
		return 150000, 15, 75, 110
	}
}

// SparseMatrix is a CSR symmetric positive-definite matrix.
type SparseMatrix struct {
	N      int
	RowPtr []int
	ColIdx []int
	Values []float64
}

// NNZ returns the stored nonzero count.
func (m *SparseMatrix) NNZ() int { return len(m.Values) }

// MulVec computes y = A x in parallel over rows, each thread taking
// the static row block mulRows sums.
func (m *SparseMatrix) MulVec(team *omp.Team, y, x []float64) {
	team.ForRange(0, m.N, omp.Static, 0, func(a, b int) { m.mulRows(y, x, a, b) })
}

// mulRows computes y[i] = (A x)[i] for the rows i in [a, b), two at a
// time: both rows keep their own accumulator and sum in column order,
// so the two add chains overlap and every y[i] has the bits of the
// one-row loop. The longer row's tail, and an odd last row, run alone.
func (m *SparseMatrix) mulRows(y, x []float64, a, b int) {
	rp, ci, vs := m.RowPtr, m.ColIdx, m.Values
	i := a
	for ; i+1 < b; i += 2 {
		lo, mid, hi := rp[i], rp[i+1], rp[i+2]
		k := min(mid-lo, hi-mid)
		s0, s1 := rowPairSum(ci[lo:lo+k], vs[lo:lo+k], ci[mid:mid+k], vs[mid:mid+k], x)
		y[i] = rowSum(s0, ci[lo+k:mid], vs[lo+k:mid], x)
		y[i+1] = rowSum(s1, ci[mid+k:hi], vs[mid+k:hi], x)
	}
	if i < b {
		y[i] = rowSum(0, ci[rp[i]:rp[i+1]], vs[rp[i]:rp[i+1]], x)
	}
}

// rowPairSum sums two equal-length rows side by side, each from zero and
// in column order.
func rowPairSum(c0 []int, v0 []float64, c1 []int, v1, x []float64) (s0, s1 float64) {
	v0, c1, v1 = v0[:len(c0)], c1[:len(c0)], v1[:len(c0)]
	for j, c := range c0 {
		s0 += v0[j] * x[c]
		s1 += v1[j] * x[c1[j]]
	}
	return s0, s1
}

// rowSum adds the products v[j]*x[c[j]] to s in order.
func rowSum(s float64, c []int, v, x []float64) float64 {
	v = v[:len(c)]
	for j, col := range c {
		s += v[j] * x[col]
	}
	return s
}

// makea builds the synthetic SPD matrix: A = sum_i w_i x_i x_i^T + shift*I
// with sparse random unit vectors x_i and geometric weights w_i spanning
// [rcond, 1]. The assembled matrix has smallest eigenvalue ~shift and
// largest ~shift + O(1), like NPB's generator.
//
// The n vectors are drawn first and kept flat (positions, values, weight,
// norm), with a row → slot index in vector order. Each row is then summed
// in a dense scratch row, vector by vector. A vector holds each position
// once, so every (r, c) gains at most one term per vector, and the
// shift+1 diagonal comes last: each entry adds the same operands in the
// same order as accumulating A term by term in vector order. ColIdx and
// Values are sized exactly by a structure-only pass.
//
//ookami:cold -- matrix assembly: once per RunFull call (npb/cg-s times it), outside the solve loop
func makea(n, nonzer int, shift float64, seed uint64) *SparseMatrix {
	const rcond = 0.1
	g := rng.NewLCG(seed)
	// Vector i owns slots vec[i]..vec[i+1] of pos and val.
	vec := make([]int, n+1)
	pos := make([]int, 0, n*(nonzer+1))
	val := make([]float64, 0, n*(nonzer+1))
	owner := make([]int, 0, n*(nonzer+1)) // owner[k]: the vector slot k belongs to
	weight := make([]float64, n)
	norms := make([]float64, n)
	seen := make([]int, n) // seen[p] == i+1: vector i already holds position p
	ratio := math.Pow(rcond, 1/float64(n))
	w := 1.0
	for i := 0; i < n; i++ {
		// Sparse random vector with nonzer entries (sprnvc): random
		// positions, random values, plus a strong diagonal component
		// (vecset's 0.5 at position i).
		for len(pos)-vec[i] < nonzer {
			p := int(g.Next() * float64(n))
			if p >= n || seen[p] == i+1 {
				continue
			}
			seen[p] = i + 1
			pos = append(pos, p)
			val = append(val, 2*g.Next()-1)
		}
		if seen[i] != i+1 {
			pos = append(pos, i)
			val = append(val, 0.5)
		}
		vec[i+1] = len(pos)
		for range vec[i+1] - vec[i] {
			owner = append(owner, i)
		}
		// Normalize the vector so the outer product has unit scale.
		norm := 0.0
		for _, v := range val[vec[i]:] {
			norm += v * v
		}
		norms[i] = 1 / math.Sqrt(norm)
		weight[i] = w
		w *= ratio
	}
	// Invert by counting sort: row r's slots (pos[k] == r) are
	// rowSlots[slotPtr[r]:slotPtr[r+1]], in vector order.
	slotPtr := make([]int, n+1)
	for _, p := range pos {
		slotPtr[p+1]++
	}
	for r := 0; r < n; r++ {
		slotPtr[r+1] += slotPtr[r]
	}
	rowSlots := make([]int, len(pos))
	next := slices.Clone(slotPtr[:n]) // the next free place in each row's slot list
	for k, p := range pos {
		rowSlots[next[p]] = k
		next[p]++
	}
	// Row r's columns are the positions of every vector with a slot in
	// row r, plus r itself. mark[c] == r+1 in the structure pass and
	// -(r+1) in the value pass: column c is already in row r.
	mark := make([]int, n)
	m := &SparseMatrix{N: n, RowPtr: make([]int, n+1)}
	for r := 0; r < n; r++ {
		cnt := 1
		mark[r] = r + 1
		for _, k := range rowSlots[slotPtr[r]:slotPtr[r+1]] {
			i := owner[k]
			for _, c := range pos[vec[i]:vec[i+1]] {
				if mark[c] != r+1 {
					mark[c] = r + 1
					cnt++
				}
			}
		}
		m.RowPtr[r+1] = m.RowPtr[r] + cnt
	}
	m.ColIdx = make([]int, m.RowPtr[n])
	m.Values = make([]float64, m.RowPtr[n])
	dense := make([]float64, n)
	for r := 0; r < n; r++ {
		cols := m.ColIdx[m.RowPtr[r]:m.RowPtr[r]]
		for _, a := range rowSlots[slotPtr[r]:slotPtr[r+1]] {
			i := owner[a]
			for b := vec[i]; b < vec[i+1]; b++ {
				c := pos[b]
				dense[c] += weight[i] * val[a] * norms[i] * val[b] * norms[i]
				if mark[c] != -(r + 1) {
					mark[c] = -(r + 1)
					cols = append(cols, c)
				}
			}
		}
		dense[r] += shift + 1 // NPB adds a diagonal dominance term
		if mark[r] != -(r + 1) {
			cols = append(cols, r)
		}
		slices.Sort(cols)
		for j, c := range cols {
			m.Values[m.RowPtr[r]+j] = dense[c]
			dense[c] = 0
		}
	}
	return m
}

// CGOutput carries the benchmark outputs.
type CGOutput struct {
	Zeta     float64
	Residual float64 // ||r|| of the last inner solve
	NNZ      int
}

// cgIters is the fixed iteration count of NPB's inner CG solve (no
// early exit).
const cgIters = 25

// cgStride is the distance in float64s between two threads' partial
// sums: one 64-byte cache line, so no two threads write the same line.
const cgStride = 8

// cgSolver is the state of one RunFull: the matrix, the five work
// vectors, and what the threads of the team share inside a solve. Each
// scalar of the solve is a sum of per-thread partials, one per static
// row block; part[k][tid*cgStride+j] is thread tid's partial of the
// j-th scalar published through array k. Consecutive sums use the two
// arrays in turn, so a thread that runs ahead to the next sum cannot
// overwrite a partial that a slower thread is still adding.
type cgSolver struct {
	m             *SparseMatrix
	x, z, r, p, q []float64
	threads       int
	bar           *omp.Barrier
	part          [2][]float64
	resid, xz     float64 // thread 0's results of the last solve
}

// newCGSolver allocates the work vectors, the barrier and the partial
// arrays of a RunFull on a team of threads.
//
//ookami:cold -- work-array allocation: once per RunFull call, outside the solve loop
func newCGSolver(m *SparseMatrix, threads int) *cgSolver {
	n := m.N
	return &cgSolver{
		m: m,
		x: make([]float64, n), z: make([]float64, n), r: make([]float64, n),
		p: make([]float64, n), q: make([]float64, n),
		threads: threads,
		bar:     omp.NewBarrier(threads),
		part:    [2][]float64{make([]float64, threads*cgStride), make([]float64, threads*cgStride)},
	}
}

// solve is thread tid's share of one outer iteration, run by every
// thread of a parallel region: the 25-iteration CG solve of A z = x,
// then the residual ||x - A z||, x.z and z.z, and finally x = z/||z||.
// The thread owns the rows omp.StaticSlice gives it, the block that
// ReduceSum and the Static schedule gave it when every step was a
// region of its own. It writes only its own rows of z, r, p, q and x;
// each SpMV reads all of p or z, so a barrier precedes it. Every thread
// adds the partials of a scalar in thread order, as ReduceSum does, so
// all threads hold the same bits. Three barriers per CG iteration.
func (s *cgSolver) solve(tid int) {
	a, b := omp.StaticSlice(0, s.m.N, tid, s.threads)
	x := s.x[a:b]
	z, r, p, q := s.z[a:b][:len(x)], s.r[a:b][:len(x)], s.p[a:b][:len(x)], s.q[a:b][:len(x)]
	for i := range x {
		z[i] = 0
		r[i] = x[i]
		p[i] = x[i]
	}
	rho := s.allSum(tid, 1, innerProduct(r, r))
	for range cgIters {
		s.m.mulRows(s.q, s.p, a, b)
		alpha := rho / s.allSum(tid, 0, innerProduct(p, q))
		for i := range z {
			z[i] += alpha * p[i]
		}
		for i := range r {
			r[i] += -alpha * q[i]
		}
		rho0 := rho
		rho = s.allSum(tid, 1, innerProduct(r, r))
		beta := rho / rho0
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		s.bar.Wait()
	}
	s.m.mulRows(s.q, s.z, a, b)
	for i := range r {
		r[i] = x[i] - q[i]
	}
	own := s.part[0][tid*cgStride:]
	own[0], own[1], own[2] = innerProduct(r, r), innerProduct(x, z), innerProduct(z, z)
	s.bar.Wait()
	norm := 1 / math.Sqrt(s.total(0, 2))
	if tid == 0 {
		s.resid, s.xz = math.Sqrt(s.total(0, 0)), s.total(0, 1)
	}
	for i := range x {
		x[i] = z[i] * norm
	}
}

// allSum publishes v as thread tid's partial of one scalar through
// array k, waits for every thread's, and returns their sum.
func (s *cgSolver) allSum(tid, k int, v float64) float64 {
	s.part[k][tid*cgStride] = v
	s.bar.Wait()
	return s.total(k, 0)
}

// total adds the partials of the j-th scalar in array k in thread
// order, starting from zero like ReduceSum.
func (s *cgSolver) total(k, j int) float64 {
	sum := 0.0
	for t := range s.threads {
		sum += s.part[k][t*cgStride+j]
	}
	return sum
}

// innerProduct returns the sum of a[i]*b[i] in index order.
func innerProduct(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// RunFull executes the CG benchmark and returns its outputs. Each
// outer iteration is one parallel region of the team.
func (cg *CG) RunFull(c Class, team *omp.Team) CGOutput {
	n, nonzer, niter, shift := cgParams(c)
	s := newCGSolver(makea(n, nonzer, shift, 314159265), team.Size())
	for i := range s.x {
		s.x[i] = 1
	}
	solve := s.solve
	var zeta float64
	for it := 0; it < niter; it++ {
		team.Parallel(solve)
		zeta = shift + 1/s.xz
	}
	return CGOutput{Zeta: zeta, Residual: s.resid, NNZ: s.m.NNZ()}
}

// Run executes and verifies CG. The matrix is PSD-plus-(shift+1)*I by
// construction, so its smallest eigenvalue lies in [shift+1, shift+1.5]
// (Gershgorin from the diagonal side); the inverse-power iteration's
// zeta = shift + 1/(x.z) converges to shift + lambda_min, i.e. into
// (2*shift + 0.9, 2*shift + 2).
func (cg *CG) Run(c Class, team *omp.Team) (Result, error) {
	_, _, _, shift := cgParams(c)
	out := cg.RunFull(c, team)
	res := Result{Benchmark: "CG", Class: c, Checksum: out.Zeta, Stats: cg.Characterize(c)}
	if out.Residual > 1e-8 {
		return res, fmt.Errorf("CG: inner solve residual %v too large", out.Residual)
	}
	if out.Zeta <= 2*shift+0.9 || out.Zeta >= 2*shift+2 {
		return res, fmt.Errorf("CG: zeta %v outside (%v, %v)", out.Zeta, 2*shift+0.9, 2*shift+2)
	}
	res.Verified = true
	return res, nil
}

// Characterize: the dominant cost is niter*25 sparse matvecs. Each stored
// nonzero costs 2 flops, a streamed 12 bytes (value+index) and a random
// 8-byte gather of x — CG is the paper's memory-latency-bound pole.
func (cg *CG) Characterize(c Class) Stats {
	n, nonzer, niter, _ := cgParams(c)
	nnz := float64(n) * float64(nonzer*nonzer+1) // outer products overlap
	matvecs := float64(niter * (25 + 1))
	vecOps := float64(niter*25*5+niter*3) * float64(n) // axpy/dot/update traffic
	return Stats{
		Flops:       matvecs*2*nnz + 2*vecOps,
		StreamBytes: matvecs*12*nnz + 8*vecOps,
		RandomBytes: matvecs * 8 * nnz,
		VecFrac:     0.60,
		SerialFrac:  2e-5,
		Barriers:    matvecs * 4,
	}
}
