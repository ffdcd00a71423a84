package parexec

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/testutil"
	"ookami/internal/toolchain"
)

// TestDispatchCertified is the purity gate's enforcement test: every entry
// of the engine's dispatch table must name a function the interprocedural
// purity analysis certified, as recorded in the parsafe baseline. Adding a
// query to Dispatch without first certifying its entry point fails here.
func TestDispatchCertified(t *testing.T) {
	raw, err := os.ReadFile("../analysis/baseline/parsafe.json")
	if err != nil {
		t.Fatalf("reading parsafe baseline: %v", err)
	}
	var baseline struct {
		Entries []struct {
			Package string `json:"package"`
			Func    string `json:"func"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parsing parsafe baseline: %v", err)
	}
	certified := make(map[Cert]bool, len(baseline.Entries))
	for _, e := range baseline.Entries {
		certified[Cert{Pkg: e.Package, Func: e.Func}] = true
	}
	for _, name := range Entries() {
		c := Dispatch[name]
		if !certified[c] {
			t.Errorf("dispatch entry %q -> %s.%s is not certified in the parsafe baseline",
				name, c.Pkg, c.Func)
		}
	}
}

func TestCertifyPanicsOnUnknownEntry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with an uncertified entry did not panic")
		}
	}()
	e := NewSerial()
	e.Run("bench.RunAll", "x", func() any { return nil })
}

// TestMapCoversAllIndices pins Map's contract at the edges of its
// fan-out: no items, a single inline item, and more items than workers.
func TestMapCoversAllIndices(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	for _, n := range []int{0, 1, runtime.GOMAXPROCS(0) + 3} {
		got := make([]int32, n)
		Map(n, func(i int) { atomic.AddInt32(&got[i], 1) })
		for i, v := range got {
			if v != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, v)
			}
		}
	}
}

func TestMemoSingleflight(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	var m Memo
	var calls int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	const callers = 16
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = m.Do("k", func() any {
				atomic.AddInt32(&calls, 1)
				return 42
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn executed %d times, want 1", calls)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("caller %d got %v", i, r)
		}
	}
	if mm := m.Metrics(); mm.Misses != 1 || mm.Hits != callers-1 {
		t.Fatalf("metrics hits=%d misses=%d, want %d/1", mm.Hits, mm.Misses, callers-1)
	}
}

func TestMemoPanicDoesNotPoison(t *testing.T) {
	var m Memo
	func() {
		defer func() { recover() }()
		m.Do("k", func() any { panic("boom") })
	}()
	// The failed computation must have been evicted so a retry runs fn.
	v := m.Do("k", func() any { return 7 })
	if v != 7 {
		t.Fatalf("retry after panic got %v", v)
	}
}

func TestMemoBoundedLRUEvicts(t *testing.T) {
	m := Memo{cap: 2}
	calls := map[string]int{}
	get := func(k string) any {
		return m.Do(k, func() any { calls[k]++; return k })
	}
	get("a")
	get("b")
	get("a") // touch a: b becomes the LRU entry
	get("c") // over capacity: evicts b
	if mm := m.Metrics(); mm.Evictions != 1 || mm.Size != 2 || mm.Cap != 2 {
		t.Fatalf("metrics after eviction: %+v", mm)
	}
	get("a") // still cached
	get("b") // evicted, recomputes (and pushes out the LRU entry c)
	if calls["a"] != 1 || calls["b"] != 2 || calls["c"] != 1 {
		t.Fatalf("compute counts: %v", calls)
	}
	if mm := m.Metrics(); mm.Evictions != 2 || mm.Size != 2 {
		t.Fatalf("metrics after recompute: %+v", mm)
	}
}

// An in-flight computation must survive any amount of cache pressure:
// its waiters hold the entry, and evicting it would break the
// "N concurrent identical queries, 1 compute" coalescing guarantee.
func TestMemoBoundedKeepsInFlight(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	m := Memo{cap: 1}
	release := make(chan struct{})
	var slowCalls, waiters int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := m.Do("slow", func() any {
				atomic.AddInt32(&slowCalls, 1)
				<-release
				return 99
			})
			if v != 99 {
				t.Errorf("slow waiter got %v", v)
			}
			atomic.AddInt32(&waiters, 1)
		}()
	}
	// Churn unique completed keys through the cap-1 cache while the slow
	// computation is still in flight.
	for i := 0; i < 100; i++ {
		k := "churn" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		m.Do(k, func() any { return i })
	}
	close(release)
	wg.Wait()
	if slowCalls != 1 {
		t.Fatalf("slow fn executed %d times, want 1", slowCalls)
	}
	if waiters != 8 {
		t.Fatalf("%d waiters returned, want 8", waiters)
	}
	if mm := m.Metrics(); mm.Size > mm.Cap+1 || mm.Evictions == 0 {
		t.Fatalf("bounded cache did not stay bounded: %+v", mm)
	}
}

// An engine's memo is bounded by memoCap; shrinking the bound shows the
// engine's queries evicting through it.
func TestEngineMemoCapacityMetrics(t *testing.T) {
	e := NewSerial()
	defer e.Close()
	if mm := e.MemoMetrics(); mm.Cap != memoCap {
		t.Fatalf("fresh engine capacity %d, want %d", mm.Cap, memoCap)
	}
	e.memo.cap = 2
	for _, l := range []toolchain.Loop{toolchain.LoopSimple, toolchain.LoopGather, toolchain.LoopScatter} {
		e.LoopCycles(toolchain.Fujitsu, l, machine.A64FX)
	}
	mm := e.MemoMetrics()
	if mm.Cap != 2 || mm.Size != 2 || mm.Evictions != 1 || mm.Misses != 3 {
		t.Fatalf("engine memo metrics: %+v", mm)
	}
}

// TestEngineMatchesDirect pins the memoized query to the direct
// computation for every (toolchain, loop) pair on both machines, with
// the queries fanned across Map onto one shared engine — the
// bit-identical guarantee the golden CSV test relies on at the sweep
// level.
func TestEngineMatchesDirect(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	type q struct {
		tc toolchain.Toolchain
		l  toolchain.Loop
		m  machine.Machine
	}
	var qs []q
	for _, tc := range toolchain.OnA64FX {
		for _, l := range append(append([]toolchain.Loop{}, toolchain.SimpleLoops...), toolchain.MathLoops...) {
			qs = append(qs, q{tc, l, machine.A64FX})
		}
	}
	for _, l := range toolchain.SimpleLoops {
		qs = append(qs, q{toolchain.Intel, l, machine.SkylakeGold6140})
	}
	direct := func(x q) float64 {
		prof, ok := perfmodel.ProfileFor(x.m.Name)
		if !ok {
			return math.NaN()
		}
		return x.tc.Compile(x.l, x.m).CyclesPerElement(prof)
	}
	eng := NewSerial()
	got := make([]float64, len(qs))
	Map(len(qs), func(i int) { got[i] = eng.LoopCycles(qs[i].tc, qs[i].l, qs[i].m) })
	for i, x := range qs {
		want := direct(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("%s/%s on %s: got %v want %v", x.tc.Name, x.l, x.m.Name, got[i], want)
		}
	}
}

func TestEngineMemoHits(t *testing.T) {
	e := NewSerial()
	first := e.LoopCycles(toolchain.Fujitsu, toolchain.LoopSimple, machine.A64FX)
	second := e.LoopCycles(toolchain.Fujitsu, toolchain.LoopSimple, machine.A64FX)
	if first != second {
		t.Fatalf("memoized value changed: %v then %v", first, second)
	}
	if mm := e.MemoMetrics(); mm.Hits != 1 || mm.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", mm.Hits, mm.Misses)
	}
}
