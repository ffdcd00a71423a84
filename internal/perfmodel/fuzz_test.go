package perfmodel_test

import (
	"slices"
	"testing"

	"ookami/internal/machine"
	pm "ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// The fuzz input is three values: a profile selector, an encoded body and
// an iteration count. Every byte string decodes to a valid body and a
// profile that can issue it, so each input is a fair equivalence check.

const numOps = int(pm.BRANCH) + 1

// maxDynamic caps iterations x body length of one fuzz input.
const maxDynamic = 1 << 14

// decodeProfile picks a base profile from sel[0]: A64FX, Skylake, a narrow
// core (window 7, issue 3, one FP pipe), or one built from the remaining
// bytes — window, issue width, four pipe counts, then a latency and an
// occupancy per op class, either of which may be 0.
func decodeProfile(sel []byte) *pm.Profile {
	var p pm.Profile
	if len(sel) == 0 {
		sel = []byte{0}
	}
	switch sel[0] % 4 {
	case 0:
		p = pm.A64FXProfile
	case 1:
		p = pm.SkylakeProfile
	case 2:
		p = pm.A64FXProfile
		p.Window, p.IssueWidth, p.FPPipes = 7, 3, 1
	default:
		at := func(i int) int {
			if i < len(sel) {
				return int(sel[i])
			}
			return 0
		}
		p = pm.Profile{Name: "fuzz", Window: 1 + at(1), IssueWidth: 1 + at(2)%8,
			FPPipes: 1 + at(3)%3, LoadPipes: 1 + at(4)%3, StorePipes: 1 + at(5)%3, IntPipes: 1 + at(6)%3,
			Costs: map[pm.Op]pm.Cost{}}
		for o := 0; o < numOps && 8+2*o < len(sel); o++ {
			p.Costs[pm.Op(o)] = pm.Cost{Latency: at(7+2*o) % 48, Occupancy: at(8+2*o) % 24}
		}
	}
	return &p
}

// decodeBody reads instructions as [op, #deps, deps..., #carried,
// carried...]; a dep byte is reduced modulo the instruction's index and a
// carried byte modulo the body length, so any input is a valid body.
func decodeBody(code []byte) pm.Body {
	next := func() int {
		if len(code) == 0 {
			return 0
		}
		b := code[0]
		code = code[1:]
		return int(b)
	}
	var body pm.Body
	for len(code) > 0 && len(body) < 256 {
		i := len(body)
		ins := pm.Instr{Op: pm.Op(next() % numOps)}
		for d := next() % 8; d > 0; d-- {
			if v := next(); i > 0 {
				ins.Deps = append(ins.Deps, v%i)
			}
		}
		for c := next() % 4; c > 0; c-- {
			ins.Carried = append(ins.Carried, next())
		}
		body = append(body, ins)
	}
	for i := range body {
		for k, c := range body[i].Carried {
			body[i].Carried[k] = c % len(body)
		}
	}
	return body
}

// encodeBody is decodeBody's inverse for bodies of at most 256
// instructions with at most 7 deps and 3 carried deps each.
func encodeBody(body pm.Body) []byte {
	var code []byte
	for _, ins := range body {
		code = append(code, byte(ins.Op), byte(len(ins.Deps)))
		for _, d := range ins.Deps {
			code = append(code, byte(d))
		}
		code = append(code, byte(len(ins.Carried)))
		for _, c := range ins.Carried {
			code = append(code, byte(c))
		}
	}
	return code
}

// sameBody compares bodies by value, nil and empty index lists alike.
func sameBody(a, b pm.Body) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || !slices.Equal(a[i].Deps, b[i].Deps) ||
			!slices.Equal(a[i].Carried, b[i].Carried) {
			return false
		}
	}
	return true
}

// compiledBodies returns every distinct vectorized body toolchain.Compile
// produces for the machines its toolchains target, with the profile
// selector of that machine.
func compiledBodies(t testing.TB) (sels []byte, codes [][]byte) {
	seen := map[string]bool{}
	for _, tc := range toolchain.All {
		m, sel := machine.A64FX, byte(0)
		if !tc.Supports(m) {
			m, sel = machine.SkylakeGold6140, 1
		}
		for l := toolchain.LoopSimple; l <= toolchain.LoopStencil; l++ {
			c := tc.Compile(l, m)
			if !c.Vectorized {
				continue
			}
			code := encodeBody(c.Body)
			if got := decodeBody(code); !sameBody(got, c.Body) {
				t.Fatalf("%s %s: body does not round-trip through the fuzz encoding", tc.Name, l)
			}
			if key := string(sel) + string(code); !seen[key] {
				seen[key] = true
				sels = append(sels, sel)
				codes = append(codes, code)
			}
		}
	}
	return sels, codes
}

// FuzzScheduleEquivalence checks the event-driven scheduler against the
// cycle-stepped reference on arbitrary bodies and profiles. The seed
// corpus is every body shape toolchain.Compile emits, at the 64
// iterations CyclesPerIter runs, plus the corner profiles committed under
// testdata/fuzz.
func FuzzScheduleEquivalence(f *testing.F) {
	sels, codes := compiledBodies(f)
	for i := range codes {
		f.Add([]byte{sels[i]}, codes[i], uint8(63))
	}
	f.Fuzz(func(t *testing.T, sel, code []byte, iters uint8) {
		body := decodeBody(code)
		if len(body) == 0 {
			return
		}
		// The reference rescans the window every cycle; bound the run so
		// one input stays well under a second (every seed fits, and a
		// body of at most 256 instructions still gets 64 iterations).
		n := min(1+int(iters)%128, maxDynamic/len(body))
		checkAgainstRef(t, decodeProfile(sel), body, n)
	})
}
