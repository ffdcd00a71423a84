package analysis

import (
	"strings"
	"testing"
)

// The hotpath fixtures type-check under a kernel-suffixed import path
// (ookami/internal/loops) so every unmarked function is hot by default.

func TestHotAppendDistinguishesPreallocation(t *testing.T) {
	runFixture(t, "ookami/internal/loops", []Analyzer{HotAppend{}}, map[string]string{
		"grow.go": `package loops

func Grow(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want hotappend
	}
	return out
}

func GrowFromEmptyLit(n int) []int {
	out := []int{}
	for i := 0; i < n; i++ {
		out = append(out, i) // want hotappend
	}
	return out
}

func GrowZeroCapMake(n int) []int {
	out := make([]int, 0)
	for i := 0; i < n; i++ {
		out = append(out, i) // want hotappend
	}
	return out
}

func Prealloc(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func Reuse(buf []int, n int) []int {
	out := buf[:0]
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

func ParamOrigin(out []int, n int) []int {
	for i := 0; i < n; i++ {
		out = append(out, i) // caller may have sized it
	}
	return out
}

func NotSelfGrowth(dst []int, src []int) []int {
	for _, v := range src {
		dst = append(dst, v) // dst is a parameter: exempt
	}
	return dst
}
`,
	})
}

func TestHotDeferFlagsOnlyLoopDefers(t *testing.T) {
	runFixture(t, "ookami/internal/loops", []Analyzer{HotDefer{}}, map[string]string{
		"defer.go": `package loops

func trace() func() { return func() {} }

func PerIteration(n int) {
	for i := 0; i < n; i++ {
		defer trace()() // want hotdefer
	}
}

func PerCall(n int) {
	defer trace()()
	for i := 0; i < n; i++ {
		_ = i
	}
}
`,
	})
}

func TestHotIfaceFlagsDispatch(t *testing.T) {
	runFixture(t, "ookami/internal/loops", []Analyzer{HotIface{}}, map[string]string{
		"iface.go": `package loops

type namer interface{ Name() string }

func sink(v any) {}

var global any

func Lookup(ns []namer) string {
	s := ""
	for _, n := range ns {
		s += n.Name() // want hotiface
	}
	return s
}

func Apply(f func(int) int, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += f(i) // want hotiface
	}
	return s
}

func Boxing(n int) {
	for i := 0; i < n; i++ {
		sink(i)    // boxing: compilerdiag judges whether it escapes
		global = i // likewise
	}
}

func LocalClosure(n int) int {
	sq := func(x int) int { return x * x }
	s := 0
	for i := 0; i < n; i++ {
		s += sq(i) // sole local closure: devirtualizable
	}
	return s
}

func ConversionsAndBuiltins(xs []int) int {
	s := 0
	for _, v := range xs {
		s += int(float64(v)) // conversion, not a call
		s += len(xs)         // builtin
	}
	return s
}
`,
	})
}

func TestHotReduceFlagsCapturedGoroutineAccumulation(t *testing.T) {
	runFixture(t, "ookami/internal/loops", []Analyzer{HotReduce{}}, map[string]string{
		"reduce.go": `package loops

func Race(xs []float64) float64 {
	var sum float64
	done := make(chan struct{})
	go func() {
		for _, v := range xs {
			sum += v // want hotreduce
		}
		close(done)
	}()
	<-done
	return sum
}

func ThreadPrivate(xs []float64, out chan<- float64) {
	go func() {
		local := 0.0
		for _, v := range xs {
			local += v // declared inside the closure
		}
		out <- local
	}()
}

func Sequential(xs []float64) float64 {
	sum := 0.0
	for _, v := range xs {
		sum += v // no goroutine involved
	}
	return sum
}
`,
	})
}

// TestHotReduceOmpEndToEnd exercises the simulated-OpenMP detection
// path: a callback handed to a Team method (a type in .../internal/omp)
// runs on team goroutines, so captured float accumulation there is both
// a race and a scheduling-order dependence.
func TestHotReduceOmpEndToEnd(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tempmod\n\ngo 1.22\n",
		"internal/omp/omp.go": `package omp

type Team struct{ n int }

func NewTeam(n int) *Team { return &Team{n: n} }

func (t *Team) ForRange(lo, hi int, body func(tid, lo, hi int)) {
	body(0, lo, hi)
}
`,
		"internal/loops/kernel.go": `package loops

import "tempmod/internal/omp"

func Sum(t *omp.Team, xs []float64) float64 {
	var sum float64
	t.ForRange(0, len(xs), func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
	})
	return sum
}

func SumPrivate(t *omp.Team, xs []float64, parts []float64) {
	t.ForRange(0, len(xs), func(tid, lo, hi int) {
		local := 0.0
		for i := lo; i < hi; i++ {
			local += xs[i]
		}
		parts[tid] = local
	})
}

func SumSlot(t *omp.Team, xs []float64, out []float64) {
	t.ForRange(0, len(xs), func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[0] += xs[i]
		}
	})
}

func SumPerThreadSlot(t *omp.Team, xs []float64, parts []float64) {
	t.ForRange(0, len(xs), func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			parts[tid] += xs[i]
			parts[tid+1] = parts[tid+1] + xs[i]
		}
	})
}
`,
	})
	diags, err := Vet(newLoader(t, root), []string{"./..."}, []Analyzer{HotReduce{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	for i, want := range []struct{ slot, fn string }{{"sum", "Sum"}, {"out[0]", "SumSlot"}} {
		d := diags[i]
		if d.Analyzer != "hotreduce" || d.Pos.Filename != "internal/loops/kernel.go" {
			t.Errorf("unexpected finding %s", d)
		}
		if !strings.Contains(d.Message, "captured "+want.slot+" ") || !strings.Contains(d.Message, "function "+want.fn+" races") {
			t.Errorf("message should name %s and %s: %s", want.slot, want.fn, d.Message)
		}
	}
}

// TestHotReduceFlagsSharedSlot holds hotreduce to indexed slots: a
// captured slice slot whose index uses nothing declared in the closure
// is one slot every goroutine adds into, whatever the index.
func TestHotReduceFlagsSharedSlot(t *testing.T) {
	runFixture(t, "ookami/internal/loops", []Analyzer{HotReduce{}}, map[string]string{
		"slot.go": `package loops

func SharedSlot(xs []float64, out []float64, k int) {
	go func() {
		for _, v := range xs {
			out[0] += v   // want hotreduce
			out[k] -= v   // want hotreduce
			out[k] = out[k] + v // want hotreduce
		}
	}()
}

func PrivateSlot(xs []float64, out []float64) {
	go func() {
		for i, v := range xs {
			out[i] += v // indexed by a closure-local value
		}
	}()
}

func IntSlot(xs []int, out []int) {
	go func() {
		for _, v := range xs {
			out[0] += v // integer adds do not depend on order
		}
	}()
}
`,
	})
}

// TestHotpathSkipsTestFiles ensures benchmark helpers in _test.go files
// of kernel packages are not held to hot-loop rules.
func TestHotpathSkipsTestFiles(t *testing.T) {
	runFixture(t, "ookami/internal/loops", []Analyzer{HotAppend{}, HotDefer{}}, map[string]string{
		"loops_test.go": `package loops

func helper(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
		defer func() {}()
	}
	return out
}
`,
	})
}
