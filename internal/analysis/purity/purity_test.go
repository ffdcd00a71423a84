package purity

import (
	"strings"
	"testing"

	"ookami/internal/analysis"
)

func TestPurityDirectGlobalWrite(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

var hits int

//ookami:pure
func Tally(n int) int { // want purity
	hits++
	return hits + n
}
`,
	})
}

func TestPurityTransitiveSinkWithChain(t *testing.T) {
	diags := runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

import "time"

//ookami:pure
func Model(n int) float64 { // want purity
	return helper(n)
}

func helper(n int) float64 {
	return float64(n) * stamp()
}

func stamp() float64 {
	return float64(time.Now().UnixNano())
}
`,
	})
	if len(diags) != 1 {
		t.Fatalf("expected 1 diagnostic, got %d", len(diags))
	}
	msg := diags[0].Message
	for _, part := range []string{"Model is marked ookami:pure", "clock-read", "helper", "stamp", "reads clock via time.Now"} {
		if !strings.Contains(msg, part) {
			t.Errorf("chain message missing %q:\n%s", part, msg)
		}
	}
}

func TestPurityParamWritesAreAllowed(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

//ookami:pure
func Fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

//ookami:pure
func Bump(x *int) { *x++ }
`,
	})
}

func TestPurityFuncParamCallIsConditional(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

//ookami:pure
func Apply(xs []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
`,
	})
}

// The toolchain regression: a package-level function value is mutable
// state and an unanalyzable indirect call, so a certified function
// reaching one through a helper is flagged. Fixed on the tree by
// turning `var ins = perfmodel.I` into a real declaration.
func TestPurityPackageLevelFuncValueIsDynCall(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

func id(x int) int { return x }

var ins = id

//ookami:pure
func Build(n int) int { // want purity
	return helper(n)
}

func helper(n int) int { return ins(n) }
`,
	})
}

func TestPurityChanLockSpawn(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

import "sync"

var mu sync.Mutex

//ookami:pure
func Locked() { // want purity purity
	mu.Lock()
	defer mu.Unlock()
}

//ookami:pure
func Sender(c chan int) { // want purity
	c <- 1
}

//ookami:pure
func Spawner() { // want purity
	go func() {}()
}
`,
	})
}

func TestPurityGlobalRandIsSinkSeededGeneratorIsNot(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

import "math/rand"

//ookami:pure
func Noisy() float64 { // want purity
	return rand.Float64()
}

//ookami:pure
func Seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}
`,
	})
}

func TestPurityGlobalWriteThroughCalleeParameter(t *testing.T) {
	// Passing a package-level slice to a callee that writes through its
	// parameter makes the caller a global writer.
	diags := runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

var table = make([]float64, 8)

func fill(dst []float64) {
	for i := range dst {
		dst[i] = 1
	}
}

//ookami:pure
func Warm() { // want purity
	fill(table)
}
`,
	})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "writes global table") {
		t.Fatalf("expected a global-write-via-callee diagnostic, got %v", diags)
	}
}

func TestPurityValueReceiverMethodIsClean(t *testing.T) {
	runFixture(t, "p", []analysis.Analyzer{Purity{}}, map[string]string{
		"p.go": `package p

type Gen struct{ seed uint64 }

//ookami:pure
func (g Gen) At(i uint64) uint64 {
	z := g.seed + i*0x9e3779b97f4a7c15
	return z ^ (z >> 31)
}
`,
	})
}

// TestPurityMethodExpressionPassesReceiver: a method expression
// (*Buf).Put(x, v) passes x as the receiver, exactly like x.Put(v), so
// a write through the receiver lands on x in both spellings.
func TestPurityMethodExpressionPassesReceiver(t *testing.T) {
	files := map[string]string{
		"p.go": `package p

type Buf struct{ xs []float64 }

func (b *Buf) Put(v float64) { b.xs[0] = v }

var g = &Buf{xs: make([]float64, 1)}

//ookami:pure
func ViaCall(v float64) { // want purity
	g.Put(v)
}

//ookami:pure
func ViaExpr(v float64) { // want purity
	(*Buf).Put(g, v)
}

//ookami:pure
func FillExpr(b *Buf, v float64) {
	(*Buf).Put(b, v)
}
`,
	}
	diags := runFixture(t, "p", []analysis.Analyzer{Purity{}}, files)
	for _, d := range diags {
		if !strings.Contains(d.Message, "writes global g via Buf.Put") {
			t.Errorf("want the global write through the receiver, got: %s", d.Message)
		}
	}

	p, err := analysis.LoadSource("p", files)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fi := range summarize(p).Funcs {
		if fi.Name != "FillExpr" {
			continue
		}
		found = true
		var got []string
		for _, e := range fi.selectEffects(func(EffectKind) bool { return true }) {
			got = append(got, e.Kind.String()+": "+e.Detail)
		}
		if want := "param-write: writes through parameter b via Buf.Put"; strings.Join(got, "\n") != want {
			t.Errorf("FillExpr effects = %q, want [%q]", got, want)
		}
	}
	if !found {
		t.Fatal("FillExpr not summarized")
	}
}
