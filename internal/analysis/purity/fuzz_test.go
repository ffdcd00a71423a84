package purity

import (
	"testing"

	"ookami/internal/analysis"
)

// FuzzSummarize throws hostile call graphs at the effect-summary
// fixpoint: mutual recursion, method values, closures, variadic
// forwarding, self-application. The invariant under test is that
// summarize always terminates without panicking — the chain-carrying
// fixpoint dedups on (kind, detail), so no source shape may loop it —
// and that every produced effect renders a chain.
func FuzzSummarize(f *testing.F) {
	seeds := []string{
		// Mutual recursion through a global write.
		`package p
var n int
func A(k int) { n++; if k > 0 { B(k - 1) } }
func B(k int) { if k > 0 { A(k - 1) } }
//ookami:pure
func Top() { A(3) }
`,
		// Method value stored and called.
		`package p
type T struct{ n *int }
func (t T) Inc() { *t.n++ }
func Use(t T) {
	f := t.Inc
	f()
}
`,
		// Closure capturing a parameter, handed to a runner.
		`package p
func run(f func()) { f() }
func Fill(dst []float64) {
	run(func() {
		for i := range dst {
			dst[i] = 1
		}
	})
}
`,
		// Variadic forwarding chain.
		`package p
var log []int
func sink(xs ...int) { log = append(log, xs...) }
func mid(xs ...int)  { sink(xs...) }
//ookami:pure
func Top(xs ...int) { mid(xs...) }
`,
		// Self-recursion with receiver mutation.
		`package p
type G struct{ s []int }
func (g G) Walk(k int) {
	if k == 0 {
		return
	}
	g.s[0] = k
	g.Walk(k - 1)
}
`,
		// Interface dispatch plus a channel in a select.
		`package p
type R interface{ Run() }
func Drive(r R, c chan int) {
	select {
	case <-c:
	default:
		r.Run()
	}
}
`,
		// Function returning a function, applied immediately.
		`package p
func mk() func() int { return func() int { return 1 } }
func Top() int { return mk()() }
`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := analysis.LoadSource("p", map[string]string{"p.go": src})
		if err != nil {
			t.Skip()
		}
		s := summarize(p)
		for _, fi := range s.Funcs {
			for _, eff := range fi.impureEffects() {
				if eff.Chain(p.Fset) == "" {
					t.Errorf("%s: empty chain for %s", fi.Name, eff.Kind)
				}
			}
			fi.hiddenInputEffects()
		}
	})
}
