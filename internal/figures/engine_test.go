package figures

import (
	"os"
	"path/filepath"
	"testing"

	"ookami/internal/machine"
	"ookami/internal/parexec"
	"ookami/internal/stats"
	"ookami/internal/testutil"
	"ookami/internal/toolchain"
)

// The engine contract: a memoized sweep, fanned across parexec.Map, is
// byte-identical to the committed results (TestEngineMatchesCommittedResults),
// and answers served from the memo are byte-identical to the misses that
// filled it. The speedup must be free of output drift, or it is not a
// perf optimization but a model change.

// generateAll produces every artifact's CSV under the given engine,
// fanned across parexec.Map.
func generateAll(eng *parexec.Engine) map[string]string {
	old := ActiveEngine()
	SetEngine(eng)
	defer SetEngine(old)
	items := append(All(), Extras()...)
	tables := make([]*stats.Table, len(items))
	parexec.Map(len(items), func(i int) { tables[i] = items[i].Generate() })
	out := make(map[string]string, len(items))
	for i, it := range items {
		out[it.ID] = tables[i].CSV()
	}
	return out
}

// TestEngineOutputsBitIdentical regenerates every artifact on an engine
// that already holds every answer: the second pass must be all memo hits
// and reproduce the cold pass byte for byte.
func TestEngineOutputsBitIdentical(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	eng := parexec.NewSerial()
	cold := generateAll(eng)
	first := eng.MemoMetrics()
	if first.Hits == 0 || first.Misses == 0 {
		t.Fatalf("cold pass memo metrics %+v: the engine is not wired in", first)
	}
	warm := generateAll(eng)
	second := eng.MemoMetrics()
	if second.Misses != first.Misses || second.Hits <= first.Hits {
		t.Errorf("warm pass missed the memo: before %+v, after %+v", first, second)
	}
	for id, want := range cold {
		if warm[id] != want {
			t.Errorf("%s: memo-hit output differs from the cold pass", id)
		}
	}
}

// TestSetEngineNilInstallsFreshEngine pins the reset contract callers
// rely on between cold passes: SetEngine(nil) leaves a working engine
// with an empty memo, never a nil one.
func TestSetEngineNilInstallsFreshEngine(t *testing.T) {
	old := ActiveEngine()
	defer SetEngine(old)
	old.LoopCycles(toolchain.Fujitsu, toolchain.LoopSimple, machine.A64FX)
	SetEngine(nil)
	eng := ActiveEngine()
	if eng == nil || eng == old {
		t.Fatalf("SetEngine(nil) installed %p (previous %p), want a fresh engine", eng, old)
	}
	if mm := eng.MemoMetrics(); mm != (parexec.MemoMetrics{}) {
		t.Fatalf("fresh engine memo metrics %+v, want zero", mm)
	}
	if r := RelativeRuntime(toolchain.Fujitsu, toolchain.LoopSimple); !(r > 0) {
		t.Fatalf("generation on the fresh engine gave %v", r)
	}
	if mm := eng.MemoMetrics(); mm.Misses == 0 {
		t.Fatalf("generation did not query the installed engine: %+v", mm)
	}
}

// TestEngineMatchesCommittedResults diffs engine-generated CSVs against
// the committed results/ artifacts — the repository-level golden gate:
// a memoized sweep fanned across parexec.Map must reproduce the
// checked-in results byte for byte.
func TestEngineMatchesCommittedResults(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	resultsDir := filepath.Join("..", "..", "results")
	if _, err := os.Stat(resultsDir); err != nil {
		t.Skipf("no committed results directory: %v", err)
	}
	got := generateAll(parexec.NewSerial())
	checked := 0
	for id, csv := range got {
		if id == "expstudy" {
			continue // host-dependent ULP row (see TestGoldenFigures); pinned by value tests instead
		}
		path := filepath.Join(resultsDir, id+".csv")
		want, err := os.ReadFile(path)
		if err != nil {
			continue // not every artifact is committed
		}
		checked++
		if string(want) != csv {
			t.Errorf("%s: engine-generated CSV differs from committed %s", id, path)
		}
	}
	if checked == 0 {
		t.Skip("no committed CSVs matched generated artifacts")
	}
	t.Logf("verified %d committed CSV(s) against engine output", checked)
}
