package toolchain

import (
	"fmt"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
)

// Loop identifies one test loop of the paper's Section III suite.
type Loop int

const (
	LoopSimple       Loop = iota // y[i] = 2*x[i] + 3*x[i]*x[i]
	LoopPredicate                // if (x[i] > 0) y[i] = x[i]
	LoopGather                   // y[i] = x[index[i]], index a full random permutation
	LoopScatter                  // y[index[i]] = x[i]
	LoopShortGather              // gather with indices permuted within 128 B windows
	LoopShortScatter             // scatter with indices permuted within 128 B windows
	LoopRecip                    // y[i] = 1/x[i]
	LoopSqrt                     // y[i] = sqrt(x[i])
	LoopExp                      // y[i] = exp(x[i])
	LoopSin                      // y[i] = sin(x[i])
	LoopPow                      // y[i] = pow(x[i], p[i])
	LoopStencil                  // out[i] = c0*u[i] + c1*(sum of 6 neighbours)
)

// String names the loop as the paper's figures do.
func (l Loop) String() string {
	return [...]string{"simple", "predicate", "gather", "scatter",
		"short gather", "short scatter", "recip", "sqrt", "exp", "sin", "pow",
		"stencil"}[l]
}

// SimpleLoops are the loops of Figure 1.
var SimpleLoops = []Loop{LoopSimple, LoopPredicate, LoopGather, LoopScatter, LoopShortGather, LoopShortScatter}

// MathLoops are the loops of Figure 2.
var MathLoops = []Loop{LoopRecip, LoopSqrt, LoopExp, LoopSin, LoopPow}

// IsMath reports whether the loop body is dominated by a math-library call.
func (l Loop) IsMath() bool { return l >= LoopRecip && l <= LoopPow }

// MathFn maps a math loop to its perfmodel function id.
func (l Loop) MathFn() (perfmodel.MathFn, bool) {
	switch l {
	case LoopRecip:
		return perfmodel.FnRecip, true
	case LoopSqrt:
		return perfmodel.FnSqrt, true
	case LoopExp:
		return perfmodel.FnExp, true
	case LoopSin:
		return perfmodel.FnSin, true
	case LoopPow:
		return perfmodel.FnPow, true
	}
	return 0, false
}

// CompiledLoop is the result of "compiling" a loop with a toolchain.
type CompiledLoop struct {
	Loop       Loop
	Toolchain  string
	Vectorized bool
	// Body is the per-iteration instruction sequence (empty if the loop
	// did not vectorize); ElemsPerIter the elements it covers.
	Body         perfmodel.Body
	ElemsPerIter int
	// SerialCyclesPerElem is used instead of Body when the loop stayed
	// scalar (GNU's math loops): the measured per-call cost of the serial
	// library routine.
	SerialCyclesPerElem float64
}

// serialLibCost is the per-call cost, in cycles, of the scalar libm
// routines on A64FX. The exp figure is the paper's own measurement
// (Section IV: "the serial GNU implementation ... takes nearly 32 cycles
// per evaluation"); the others follow glibc's relative costs.
var serialLibCost = map[perfmodel.MathFn]float64{
	perfmodel.FnExp:   32,
	perfmodel.FnLog:   36,
	perfmodel.FnSin:   48,
	perfmodel.FnPow:   95,
	perfmodel.FnSqrt:  20,
	perfmodel.FnRecip: 12,
}

// ins is shorthand for perfmodel.I inside the body builders. A real
// declaration rather than `var ins = perfmodel.I`: a package-level
// function value is mutable state and an unanalyzable indirect call,
// which kept every body builder — and Compile above them — out of the
// certified-pure set.
func ins(op perfmodel.Op, deps ...int) perfmodel.Instr {
	return perfmodel.I(op, deps...)
}

// assemble wraps a compute body with the toolchain's loop control: the
// compute part is unrolled, then the induction variable, the predicate
// regeneration (VLA style only), and the back-edge are appended.
func (tc Toolchain) assemble(compute perfmodel.Body, lanes int) (perfmodel.Body, int) {
	unroll := tc.Unroll
	if unroll < 1 {
		unroll = 1
	}
	body := compute.Repeat(unroll)
	body = append(body, ins(perfmodel.INT), ins(perfmodel.INT))
	if tc.Style == VLA {
		body = append(body, ins(perfmodel.PRED))
	}
	body = append(body, ins(perfmodel.BRANCH))
	return body, lanes * unroll
}

// Compile lowers a loop for the given machine. The returned CompiledLoop
// feeds perfmodel for cycle estimation. Compile panics if the toolchain
// does not target the machine's ISA.
//
//ookami:pure lowering touches only its inputs and fresh bodies
func (tc Toolchain) Compile(l Loop, m machine.Machine) CompiledLoop {
	if !tc.Supports(m) {
		panic(fmt.Sprintf("toolchain %s does not target %s", tc.Name, m.Name))
	}
	lanes := m.VectorLanes64()
	out := CompiledLoop{Loop: l, Toolchain: tc.Name, Vectorized: true}

	var compute perfmodel.Body
	switch l {
	case LoopSimple:
		compute = simpleBody()
	case LoopPredicate:
		compute = predicateBody()
	case LoopGather:
		compute = gatherBody(false)
	case LoopShortGather:
		compute = gatherBody(true)
	case LoopScatter:
		compute = scatterBody(false)
	case LoopShortScatter:
		compute = scatterBody(true)
	case LoopStencil:
		compute = stencilBody()
	case LoopRecip:
		if tc.NewtonRecip {
			compute = recipNewtonBody()
		} else {
			compute = recipDivBody()
		}
	case LoopSqrt:
		if tc.NewtonSqrt {
			compute = sqrtNewtonBody()
		} else {
			compute = sqrtBlockingBody()
		}
	case LoopExp, LoopSin, LoopPow:
		if tc.Math == TierSerial {
			// No vector math library: the loop stays scalar (the paper's
			// GNU-on-SVE situation).
			fn, _ := l.MathFn()
			out.Vectorized = false
			out.SerialCyclesPerElem = serialLibCost[fn]
			return out
		}
		switch l {
		case LoopExp:
			compute = expBody(tc.Math)
		case LoopSin:
			compute = sinBody(tc.Math)
		default:
			compute = powBody(tc.Math)
		}
	default:
		panic(fmt.Sprintf("toolchain: unknown loop %d", int(l)))
	}

	out.Body, out.ElemsPerIter = tc.assemble(compute, lanes)
	return out
}

// CyclesPerElement runs the compiled loop through the scheduler (or the
// serial cost for unvectorized loops) and returns cycles per element on
// the machine's profile.
//
//ookami:pure
func (c CompiledLoop) CyclesPerElement(p *perfmodel.Profile) float64 {
	if !c.Vectorized {
		return c.SerialCyclesPerElem
	}
	return p.CyclesPerElement(c.Body, c.ElemsPerIter)
}
