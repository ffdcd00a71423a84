package purity

import (
	"testing"

	"ookami/internal/analysis"
)

// TestEffectChainGoldenRendering pins the exact chain format the
// analyzers and the -parsafe gate print: every propagation frame with
// its call-site position, then the effect detail with the originating
// site. Downstream tooling greps these lines; do not change the format
// without updating docs/ANALYSIS.md.
func TestEffectChainGoldenRendering(t *testing.T) {
	p, err := analysis.LoadSource("p", map[string]string{
		"p.go": `package p

import "time"

func Top() float64 {
	return mid()
}

func mid() float64 {
	return leaf()
}

func leaf() float64 {
	return float64(time.Now().UnixNano())
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := summarize(p)
	var top *funcInfo
	for _, fi := range s.Funcs {
		if fi.Name == "Top" {
			top = fi
		}
	}
	if top == nil {
		t.Fatal("Top not summarized")
	}
	effs := top.impureEffects()
	if len(effs) != 1 {
		t.Fatalf("expected exactly one impure effect on Top, got %v", effs)
	}
	const want = "mid (p.go:6) → leaf (p.go:10) → reads clock via time.Now (p.go:14)"
	if got := effs[0].Chain(p.Fset); got != want {
		t.Errorf("chain rendering drifted:\n got %q\nwant %q", got, want)
	}
	if got := effs[0].Kind.String(); got != "clock-read" {
		t.Errorf("kind = %q, want clock-read", got)
	}
}

// TestEffectOrderingIsStable pins the (kind, detail) sort that makes
// analyzer output and baseline files deterministic.
func TestEffectOrderingIsStable(t *testing.T) {
	effs := []*Effect{
		{Kind: EffectSink, Detail: "calls os.Exit"},
		{Kind: EffectGlobal, Detail: "writes global b"},
		{Kind: EffectGlobal, Detail: "writes global a"},
		{Kind: EffectChan, Detail: "closes channel"},
	}
	sortEffects(effs)
	want := []string{
		"global-write: writes global a",
		"global-write: writes global b",
		"sink: calls os.Exit",
		"chan-op: closes channel",
	}
	for i, e := range effs {
		if got := e.Kind.String() + ": " + e.Detail; got != want[i] {
			t.Errorf("position %d: got %q, want %q", i, got, want[i])
		}
	}
}
