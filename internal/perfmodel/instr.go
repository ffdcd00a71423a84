// Package perfmodel is the discrete performance model that stands in for
// the paper's hardware measurements. It has three layers:
//
//  1. An instruction-level model: a windowed out-of-order scheduler that
//     issues an annotated instruction sequence (a compiled loop body) onto
//     a machine's pipes, honouring latency, per-pipe occupancy (blocking
//     FDIV/FSQRT), issue width and a finite reorder window. Cycle-per-
//     element numbers for the vector-loop suite and the Section IV
//     exponential are *derived* by this scheduler, not hard-coded.
//  2. A node-level model: roofline-style multicore scaling with NUMA/CMG
//     placement effects (the Fujitsu "everything on CMG 0" penalty) and a
//     serial-fraction term, driven by operation/byte counts measured from
//     the real kernel implementations.
//  3. A cluster-level model: interconnect cost for the multi-node HPL and
//     FFT experiments.
package perfmodel

// Op is an instruction class. Classes group instructions that share a pipe
// and a cost; the scheduler only needs class-level fidelity.
type Op int

const (
	// FP arithmetic pipe classes.
	FMA Op = iota // fused multiply-add (also FMLA/FMLS/FRECPS/FRSQRTS)
	FMUL
	FADD
	FCMP // compare producing a predicate/mask
	FSEL // select/blend
	FCVT // float<->int conversion, rounding
	FMOV // register move / duplicate
	FEXPA
	FRECPE
	FRSQRTE
	FDIV    // blocking divide
	FSQRT   // blocking square root
	FSCALAR // scalar FP op (unvectorized code)

	// Memory pipe classes.
	LOAD
	STORE
	PSTORE   // predicated (masked) store
	GATHER   // indexed load, element-split
	GATHERW  // indexed load with 128-byte window pairing (A64FX fast path)
	SCATTER  // indexed store
	SCATTERW // indexed store whose targets share cache lines (short scatter)
	CALL     // opaque library call (serial libm); cost table driven

	// Control/integer pipe classes.
	INT    // address arithmetic, induction variables
	PRED   // whilelt/ptest predicate generation
	BRANCH // loop back-edge
)

// String returns the mnemonic-ish name of the class.
func (o Op) String() string {
	names := [...]string{"FMA", "FMUL", "FADD", "FCMP", "FSEL", "FCVT",
		"FMOV", "FEXPA", "FRECPE", "FRSQRTE", "FDIV", "FSQRT", "FSCALAR",
		"LOAD", "STORE", "PSTORE", "GATHER", "GATHERW", "SCATTER", "SCATTERW",
		"CALL", "INT", "PRED", "BRANCH"}
	if int(o) < len(names) {
		return names[o]
	}
	return "OP?"
}

// numOps is the number of instruction classes; BRANCH is the last one.
// The scheduler's per-issue lookups index flat [numOps] tables rather
// than re-deciding a switch or hashing a map on every instruction.
const numOps = int(BRANCH) + 1

// pipeKind is the execution resource an Op issues to.
type pipeKind int

const (
	pipeFP pipeKind = iota
	pipeLoad
	pipeStore
	pipeInt
	numPipeKinds
)

func (k pipeKind) String() string {
	return [...]string{"FP", "load", "store", "int"}[k]
}

// pipeTab maps every Op to its pipe. Built once at init from the same
// classification pipe() used to encode as a switch; the scheduler's issue
// loop indexes this array directly.
var pipeTab = func() [numOps]pipeKind {
	var t [numOps]pipeKind
	for o := Op(0); int(o) < numOps; o++ {
		switch o {
		case LOAD, GATHER, GATHERW:
			t[o] = pipeLoad
		case STORE, PSTORE, SCATTER, SCATTERW:
			t[o] = pipeStore
		case INT, PRED, BRANCH:
			t[o] = pipeInt
		default: // all FP arithmetic classes and CALL
			t[o] = pipeFP
		}
	}
	return t
}()

func (o Op) pipe() pipeKind {
	if int(o) < numOps {
		return pipeTab[o]
	}
	return pipeFP
}

// Instr is one instruction of a loop body. Deps are indices of earlier
// instructions in the same iteration whose results this instruction
// consumes; Carried are indices whose results from the *previous* iteration
// it consumes (loop-carried dependences, e.g. reduction accumulators).
type Instr struct {
	Op      Op
	Deps    []int
	Carried []int
}

// I is a convenience constructor: I(FMA, 1, 2) depends on instructions
// 1 and 2 of the same iteration.
//
//ookami:pure
func I(op Op, deps ...int) Instr { return Instr{Op: op, Deps: deps} }

// IC builds an instruction with same-iteration deps and carried deps.
func IC(op Op, deps []int, carried []int) Instr {
	return Instr{Op: op, Deps: deps, Carried: carried}
}

// Body is a loop body: the instruction sequence of one iteration.
type Body []Instr

// Validate checks that dependence indices are in range and acyclic
// (Deps must point strictly backwards).
//
//ookami:pure
func (b Body) Validate() bool {
	for i, ins := range b {
		for _, d := range ins.Deps {
			if d < 0 || d >= i {
				return false
			}
		}
		for _, c := range ins.Carried {
			if c < 0 || c >= len(b) {
				return false
			}
		}
	}
	return true
}

// CountFP returns the number of floating-point-pipe instructions, the
// figure the paper quotes ("15 floating-point instructions in the loop
// body").
//
//ookami:pure
func (b Body) CountFP() int {
	n := 0
	for _, ins := range b {
		if ins.Op.pipe() == pipeFP && ins.Op != CALL {
			n++
		}
	}
	return n
}

// Repeat returns a body comprising n copies of b with intra-iteration
// dependences preserved and carried dependences linking copy k to copy k-1
// (software unrolling), followed by tail as given: the loop control a
// caller closes the unrolled body with, in the same allocation.
//
//ookami:pure builds a fresh body
func (b Body) Repeat(n int, tail ...Instr) Body {
	out := make(Body, 0, len(b)*n+len(tail))
	for k := 0; k < n; k++ {
		off := k * len(b)
		for _, ins := range b {
			ni := Instr{Op: ins.Op}
			for _, d := range ins.Deps {
				ni.Deps = append(ni.Deps, d+off)
			}
			for _, c := range ins.Carried {
				if k == 0 {
					ni.Carried = append(ni.Carried, c)
				} else {
					// Carried dep now resolved within the unrolled body.
					ni.Deps = append(ni.Deps, c+off-len(b))
				}
			}
			out = append(out, ni)
		}
	}
	return append(out, tail...)
}
