package npb

import (
	"math"
	"testing"

	"ookami/internal/omp"
	"ookami/internal/rng"
)

func team(n int) *omp.Team { return omp.NewTeam(n) }

func TestSuiteAndByName(t *testing.T) {
	s := Suite()
	if len(s) != 6 {
		t.Fatalf("suite size %d", len(s))
	}
	names := []string{"BT", "CG", "EP", "LU", "SP", "UA"}
	for i, b := range s {
		if b.Name() != names[i] {
			t.Errorf("suite[%d] = %s want %s", i, b.Name(), names[i])
		}
		if _, err := ByName(names[i]); err != nil {
			t.Errorf("ByName(%s): %v", names[i], err)
		}
	}
	if _, err := ByName("XX"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestAllBenchmarksVerifyClassS(t *testing.T) {
	for _, b := range Suite() {
		res, err := b.Run(ClassS, team(4))
		if err != nil {
			t.Errorf("%s: %v", b.Name(), err)
			continue
		}
		if !res.Verified {
			t.Errorf("%s: not verified", b.Name())
		}
	}
}

func TestCharacterizationsPositiveAndMonotone(t *testing.T) {
	for _, b := range Suite() {
		s := b.Characterize(ClassS)
		c := b.Characterize(ClassC)
		if s.Flops <= 0 || s.StreamBytes <= 0 {
			t.Errorf("%s class S: nonpositive characterization %+v", b.Name(), s)
		}
		if c.Flops <= s.Flops*10 {
			t.Errorf("%s: class C flops (%g) should dwarf class S (%g)", b.Name(), c.Flops, s.Flops)
		}
		if s.SerialFrac < 0 || s.SerialFrac > 0.01 {
			t.Errorf("%s: serial fraction %v implausible", b.Name(), s.SerialFrac)
		}
	}
}

func TestArithmeticIntensityOrdering(t *testing.T) {
	// The paper's Figure 4 logic: EP is the compute-bound pole, SP and CG
	// the memory-bound poles. Check flop/byte ordering at class C.
	ai := func(b Benchmark) float64 {
		s := b.Characterize(ClassC)
		return s.Flops / (s.StreamBytes + s.RandomBytes)
	}
	ep, cg, sp, bt := ai(NewEP()), ai(NewCG()), ai(NewSP()), ai(NewBT())
	if ep < 10*cg || ep < 10*sp {
		t.Errorf("EP intensity (%.2f) should dwarf CG (%.2f) and SP (%.2f)", ep, cg, sp)
	}
	if bt <= sp {
		t.Errorf("BT intensity (%.2f) should exceed SP (%.2f)", bt, sp)
	}
	if cg > 0.5 {
		t.Errorf("CG intensity (%.2f) should be deeply memory-bound", cg)
	}
}

// --- EP ---

func TestEPDeterministicAcrossThreadCounts(t *testing.T) {
	// The LCG jump-ahead partitioning makes EP bitwise thread-invariant.
	ep := NewEP()
	ref := ep.RunFull(ClassS, team(1))
	for _, n := range []int{2, 3, 8} {
		got := ep.RunFull(ClassS, team(n))
		if got.SX != ref.SX || got.SY != ref.SY || got.Pairs != ref.Pairs {
			t.Fatalf("EP with %d threads differs: %+v vs %+v", n, got, ref)
		}
		if got.Q != ref.Q {
			t.Fatalf("EP annuli with %d threads differ", n)
		}
	}
}

func TestEPGaussianShape(t *testing.T) {
	ep := NewEP()
	out := ep.RunFull(ClassS, team(4))
	// Acceptance ratio ~ pi/4.
	n := float64(uint64(1) << epM(ClassS))
	if r := out.Pairs / n; math.Abs(r-math.Pi/4) > 0.001 {
		t.Errorf("acceptance ratio %v", r)
	}
	// Annulus fractions match the N(0,1) analytic values.
	for l := 0; l < 4; l++ {
		want := gaussAnnulus(l)
		got := out.Q[l] / out.Pairs
		if math.Abs(got-want) > 0.005 {
			t.Errorf("annulus %d fraction %v want %v", l, got, want)
		}
	}
	// Higher annuli essentially empty.
	if out.Q[7]+out.Q[8]+out.Q[9] > out.Pairs*1e-6 {
		t.Errorf("far annuli unexpectedly populated: %v", out.Q)
	}
}

func TestGaussAnnulusSumsToOne(t *testing.T) {
	s := 0.0
	for l := 0; l < 10; l++ {
		s += gaussAnnulus(l)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("annulus probabilities sum to %v", s)
	}
}

// --- CG ---

func TestCGSolveDrivesResidualDown(t *testing.T) {
	cg := NewCG()
	out := cg.RunFull(ClassS, team(4))
	if out.Residual > 1e-8 {
		t.Errorf("CG residual %v", out.Residual)
	}
	// Smallest eigenvalue lies in [shift+1, shift+1.5] by construction, so
	// zeta = shift + lambda_min lands in (2*shift+0.9, 2*shift+2).
	_, _, _, shift := cgParams(ClassS)
	if out.Zeta <= 2*shift+0.9 || out.Zeta >= 2*shift+2 {
		t.Errorf("zeta %v out of band around %v", out.Zeta, 2*shift+1)
	}
}

func TestCGDeterministicAcrossThreadCounts(t *testing.T) {
	// Zeta on 1 and 7 threads agrees to 1e-9 relative. Reductions are
	// deterministic for a fixed team size, but the partial-sum grouping
	// changes with it, so the last bits of zeta do differ across team
	// sizes; only rounding-level differences are allowed.
	cg := NewCG()
	a := cg.RunFull(ClassS, team(1))
	b := cg.RunFull(ClassS, team(7))
	if math.Abs(a.Zeta-b.Zeta) > 1e-9*math.Abs(a.Zeta) {
		t.Errorf("CG zeta differs across thread counts: %v vs %v", a.Zeta, b.Zeta)
	}
}

func TestMakeaStructure(t *testing.T) {
	m := makea(500, 7, 10, 314159265)
	if m.N != 500 {
		t.Fatal("size")
	}
	// Symmetry check on the assembled CSR.
	get := func(i, j int) float64 {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == j {
				return m.Values[k]
			}
		}
		return 0
	}
	for i := 0; i < 50; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if math.Abs(m.Values[k]-get(j, i)) > 1e-12 {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
	// Diagonal dominance-ish: diagonal entries carry the shift.
	for i := 0; i < m.N; i++ {
		if get(i, i) < 10 {
			t.Fatalf("diagonal %d = %v, want >= shift", i, get(i, i))
		}
	}
}

func TestCGOnDiagonalMatrixFindsEigenvalue(t *testing.T) {
	// Sanity-check the power/CG machinery on a matrix with a known
	// spectrum: diag(2, 3, 4, ...): smallest eigenvalue 2; with shift s the
	// iteration's zeta = s + 1/(x^T z) should converge near s + lambda_min
	// ... for the NPB formulation zeta tracks s + 1/lambda_min^-1-ish;
	// here we verify the inner CG solves A z = x exactly.
	n := 64
	m := &SparseMatrix{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		m.ColIdx = append(m.ColIdx, i)
		m.Values = append(m.Values, float64(i+2))
		m.RowPtr[i+1] = i + 1
	}
	tm := team(2)
	s := newCGSolver(m, tm.Size())
	for i := range s.x {
		s.x[i] = 1
	}
	tm.Parallel(s.solve)
	resid, z := s.resid, s.z
	// 25 CG iterations on condition number ~32: error ~ ((sqrt(k)-1)/
	// (sqrt(k)+1))^25 ~ 1e-4 — not exact, but clearly converging.
	if resid > 1e-3 {
		t.Fatalf("CG residual on diagonal system: %v", resid)
	}
	for i := 0; i < n; i++ {
		want := 1 / float64(i+2)
		if math.Abs(z[i]-want) > 1e-3 {
			t.Fatalf("z[%d] = %v want %v", i, z[i], want)
		}
	}
}

// --- Grid solvers ---

func TestManufacturedSolutionResidualIsZero(t *testing.T) {
	// Setting u = u* everywhere must zero the discrete residual (central
	// differences are exact on quadratics) — the foundation of the BT/SP/LU
	// verification.
	g := NewGrid(10)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			for k := 0; k < g.N; k++ {
				u := g.Exact(i, j, k)
				copy(g.U[g.Idx(i, j, k):g.Idx(i, j, k)+nComp], u[:])
			}
		}
	}
	rhs := make([]float64, len(g.U))
	if res := g.Residual(team(3), rhs); res > 1e-11 {
		t.Errorf("residual at exact solution = %v", res)
	}
	if e := g.ErrorVsExact(); e != 0 {
		t.Errorf("self error %v", e)
	}
}

func TestBTConvergesToManufacturedSolution(t *testing.T) {
	bt := NewBT()
	g := NewGrid(10)
	g.SetBoundary()
	rhs := make([]float64, len(g.U))
	tm := team(3)
	first := bt.Step(g, tm, rhs, btDTCycle[0])
	var last float64
	for i := 1; i < 120; i++ {
		last = bt.Step(g, tm, rhs, btDTCycle[i%len(btDTCycle)])
	}
	if last > first*1e-6 {
		t.Errorf("BT residual %v -> %v; expected deep convergence", first, last)
	}
	if e := g.ErrorVsExact(); e > 1e-6 {
		t.Errorf("BT error vs exact = %v", e)
	}
}

func TestSPConvergesToManufacturedSolution(t *testing.T) {
	sp := NewSP()
	g := NewGrid(10)
	g.SetBoundary()
	rhs := make([]float64, len(g.U))
	tm := team(3)
	first := sp.Step(g, tm, rhs, spDTCycle[0])
	var last float64
	for i := 1; i < 160; i++ {
		last = sp.Step(g, tm, rhs, spDTCycle[i%len(spDTCycle)])
	}
	if last > first*1e-6 {
		t.Errorf("SP residual %v -> %v", first, last)
	}
	if e := g.ErrorVsExact(); e > 1e-6 {
		t.Errorf("SP error vs exact = %v", e)
	}
}

func TestLUConvergesToManufacturedSolution(t *testing.T) {
	lu := NewLU()
	g := NewGrid(10)
	g.SetBoundary()
	rhs := make([]float64, len(g.U))
	tm := team(3)
	first := lu.Step(g, tm, rhs)
	var last float64
	for i := 0; i < 200; i++ {
		last = lu.Step(g, tm, rhs)
	}
	if last > first*1e-6 {
		t.Errorf("LU residual %v -> %v", first, last)
	}
	if e := g.ErrorVsExact(); e > 1e-6 {
		t.Errorf("LU error vs exact = %v", e)
	}
}

func TestGridSolversThreadInvariant(t *testing.T) {
	// One ADI/SSOR step must produce bit-identical grids for any team
	// size (static partitioning, no reduction reordering in the update).
	for _, step := range []func(*Grid, *omp.Team, []float64) float64{
		func(g *Grid, tm *omp.Team, r []float64) float64 { return NewBT().Step(g, tm, r, 0.2) },
		func(g *Grid, tm *omp.Team, r []float64) float64 { return NewSP().Step(g, tm, r, 0.2) },
		func(g *Grid, tm *omp.Team, r []float64) float64 { return NewLU().Step(g, tm, r) },
	} {
		g1 := NewGrid(8)
		g1.SetBoundary()
		g2 := NewGrid(8)
		g2.SetBoundary()
		r1 := make([]float64, len(g1.U))
		r2 := make([]float64, len(g2.U))
		for it := 0; it < 3; it++ {
			step(g1, team(1), r1)
			step(g2, team(5), r2)
		}
		for i := range g1.U {
			if g1.U[i] != g2.U[i] {
				t.Fatalf("thread-count dependence at %d: %v vs %v", i, g1.U[i], g2.U[i])
			}
		}
	}
}

// --- UA ---

func TestUAConservesHeatExactly(t *testing.T) {
	ua := NewUA()
	out := ua.RunFull(ClassS, team(4))
	if math.Abs(out.TotalHeat-out.SourceInput) > 1e-12 {
		t.Errorf("heat %v vs input %v", out.TotalHeat, out.SourceInput)
	}
	if out.Elements <= 8*8*8 {
		t.Error("no refinement")
	}
	if out.Faces == 0 {
		t.Error("no faces")
	}
}

func TestUAAdaptRefinesAndCoarsens(t *testing.T) {
	m := newUAMesh(8)
	m.adapt(0.5, 0.5, 0.5, 0.2)
	refined := 0
	for _, r := range m.refined {
		if r {
			refined++
		}
	}
	if refined == 0 {
		t.Fatal("no cells refined near center")
	}
	// Move the source away: the region must coarsen back.
	m.adapt(0.1, 0.1, 0.1, 0.05)
	stillCenter := m.refined[m.cell(4, 4, 4)]
	if stillCenter {
		t.Error("center cell should have coarsened after source moved")
	}
}

func TestUAProlongRestrictConserve(t *testing.T) {
	m := newUAMesh(4)
	m.tc[m.cell(2, 2, 2)] = 7
	before := m.TotalHeat()
	m.adapt(0.625, 0.625, 0.625, 0.1) // refine around that cell
	if math.Abs(m.TotalHeat()-before) > 1e-15 {
		t.Errorf("prolongation changed heat: %v -> %v", before, m.TotalHeat())
	}
	m.adapt(0.1, 0.1, 0.1, 0.01) // coarsen everything
	if math.Abs(m.TotalHeat()-before) > 1e-15 {
		t.Errorf("restriction changed heat: %v -> %v", before, m.TotalHeat())
	}
}

// --- linear algebra kernels ---

func TestFactor5SolveRoundTrip(t *testing.T) {
	m := Mat5{
		4, 1, 0, 0.5, 0,
		1, 5, 1, 0, 0.3,
		0, 1, 6, 1, 0,
		0.5, 0, 1, 7, 1,
		0, 0.3, 0, 1, 8,
	}
	f := Factor5(m)
	want := Vec5{1, -2, 3, -4, 5}
	b := m.MulVec(want)
	got := f.Solve(b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("solve[%d] = %v want %v", i, got[i], want[i])
		}
	}
	// SolveMat: m^-1 m = I.
	inv := f.SolveMat(m)
	id := Ident5()
	for i := range inv {
		if math.Abs(inv[i]-id[i]) > 1e-12 {
			t.Fatalf("SolveMat not inverse at %d: %v", i, inv[i])
		}
	}
}

func TestFactor5Pivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	m := Mat5{
		0, 1, 0, 0, 0,
		1, 0, 0, 0, 0,
		0, 0, 2, 0, 0,
		0, 0, 0, 3, 0,
		0, 0, 0, 0, 4,
	}
	f := Factor5(m)
	got := f.Solve(Vec5{1, 2, 3, 4, 5})
	want := Vec5{2, 1, 1.5, 4.0 / 3, 1.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("pivot solve[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestFactor5SingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("singular matrix should panic")
		}
	}()
	Factor5(Mat5{})
}

func TestPentaSolveAgainstDense(t *testing.T) {
	const n = 12
	d, c, e := 5.0, -1.2, 0.3
	// Build the dense matrix and a known solution.
	var want [n]float64
	for i := range want {
		want[i] = math.Sin(float64(i) + 1)
	}
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		s := d * want[i]
		if i >= 1 {
			s += c * want[i-1]
		}
		if i >= 2 {
			s += e * want[i-2]
		}
		if i+1 < n {
			s += c * want[i+1]
		}
		if i+2 < n {
			s += e * want[i+2]
		}
		rhs[i] = s
	}
	alpha := make([]float64, n)
	bsup := make([]float64, n)
	pentaSolve(d, c, e, rhs, alpha, bsup)
	for i := 0; i < n; i++ {
		if math.Abs(rhs[i]-want[i]) > 1e-12 {
			t.Fatalf("penta x[%d] = %v want %v", i, rhs[i], want[i])
		}
	}
}

func TestPentaSolveReducesToTridiagonal(t *testing.T) {
	// e = 0 must reproduce the Thomas algorithm result.
	const n = 8
	d, c := 4.0, -1.0
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	alpha := make([]float64, n)
	bsup := make([]float64, n)
	x := append([]float64(nil), rhs...)
	pentaSolve(d, c, 0, x, alpha, bsup)
	// Verify A x = rhs.
	for i := 0; i < n; i++ {
		s := d * x[i]
		if i >= 1 {
			s += c * x[i-1]
		}
		if i+1 < n {
			s += c * x[i+1]
		}
		if math.Abs(s-rhs[i]) > 1e-12 {
			t.Fatalf("tridiag check row %d: %v vs %v", i, s, rhs[i])
		}
	}
}

func TestBlockTriSolveAgainstDirect(t *testing.T) {
	// Build a 4-node block-tridiagonal system, solve, verify by
	// re-multiplying.
	diag := adiDiagBlock(0.1, 0.5)
	lo, hi := -0.8, -0.8
	const nodes = 4
	var x [nodes]Vec5
	for i := range x {
		for m := 0; m < nComp; m++ {
			x[i][m] = math.Cos(float64(i*nComp + m))
		}
	}
	// rhs = T x.
	var rhs [nodes]Vec5
	for i := 0; i < nodes; i++ {
		v := diag.MulVec(x[i])
		if i > 0 {
			for m := 0; m < nComp; m++ {
				v[m] += lo * x[i-1][m]
			}
		}
		if i < nodes-1 {
			for m := 0; m < nComp; m++ {
				v[m] += hi * x[i+1][m]
			}
		}
		rhs[i] = v
	}
	cP := make([]Mat5, nodes)
	dP := make([]Vec5, nodes)
	sol := rhs
	blockTriSolve(diag, lo, hi, sol[:], cP, dP)
	for i := 0; i < nodes; i++ {
		for m := 0; m < nComp; m++ {
			if math.Abs(sol[i][m]-x[i][m]) > 1e-10 {
				t.Fatalf("block solve node %d comp %d: %v want %v", i, m, sol[i][m], x[i][m])
			}
		}
	}
}

func TestMat5Ops(t *testing.T) {
	a := Ident5()
	b := a.AddScaled(2, Ident5()) // 3I
	if b[0] != 3 || b[6] != 3 {
		t.Errorf("AddScaled: %v", b[:7])
	}
	c := b.MulMat(b) // 9I
	if c[0] != 9 || c[1] != 0 {
		t.Errorf("MulMat: %v", c[:2])
	}
	v := c.MulVec(Vec5{1, 2, 3, 4, 5})
	if v[2] != 27 {
		t.Errorf("MulVec: %v", v)
	}
}

// epReference is EP's chunk loop before it kept its sums in locals: each
// pair updates the chunk's partial through a pointer, and the annulus
// comes from math.Max.
func epReference(c Class, tm *omp.Team) EPOutput {
	nPairs := uint64(1) << epM(c)
	nChunks := int(nPairs >> epChunkLog)
	if nChunks == 0 {
		nChunks = 1
	}
	pairsPerChunk := nPairs / uint64(nChunks)
	type partial struct {
		sx, sy float64
		q      [10]float64
		pairs  float64
	}
	parts := make([]partial, nChunks)
	tm.ForRange(0, nChunks, omp.Static, 0, func(a, b int) {
		for chunk := a; chunk < b; chunk++ {
			p := &parts[chunk]
			g := rng.At(rng.DefaultSeed, 2*uint64(chunk)*pairsPerChunk)
			for i := uint64(0); i < pairsPerChunk; i++ {
				x := 2*g.Next() - 1
				y := 2*g.Next() - 1
				t := x*x + y*y
				if t > 1 {
					continue
				}
				f := math.Sqrt(-2 * math.Log(t) / t)
				gx, gy := x*f, y*f
				l := int(math.Max(math.Abs(gx), math.Abs(gy)))
				if l > 9 {
					l = 9
				}
				p.q[l]++
				p.sx += gx
				p.sy += gy
				p.pairs++
			}
		}
	})
	var out EPOutput
	for i := range parts {
		out.SX += parts[i].sx
		out.SY += parts[i].sy
		out.Pairs += parts[i].pairs
		for l := 0; l < 10; l++ {
			out.Q[l] += parts[i].q[l]
		}
	}
	return out
}

// TestEPMatchesReferenceLoop holds EP's chunk loop to the bits of
// epReference at classes S and W on 1, 2 and 4 threads.
func TestEPMatchesReferenceLoop(t *testing.T) {
	classes := []Class{ClassS, ClassW}
	if testing.Short() {
		classes = classes[:1]
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range classes {
		want := epReference(c, team(1))
		for _, n := range []int{1, 2, 4} {
			got := NewEP().RunFull(c, team(n))
			ok := same(got.SX, want.SX) && same(got.SY, want.SY) && same(got.Pairs, want.Pairs)
			for l := range got.Q {
				ok = ok && same(got.Q[l], want.Q[l])
			}
			if !ok {
				t.Errorf("class %v, %d threads: %+v, reference loop %+v", c, n, got, want)
			}
		}
	}
}

// TestEPMatchesReferenceLoopWithoutAVX2 runs TestEPMatchesReferenceLoop
// on boxMuller's math.Log loop, the path of hosts without AVX2.
func TestEPMatchesReferenceLoopWithoutAVX2(t *testing.T) {
	defer func(on bool) { useAVX2 = on }(useAVX2)
	useAVX2 = false
	TestEPMatchesReferenceLoop(t)
}
