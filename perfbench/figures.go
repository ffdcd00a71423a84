package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ookami/internal/figures"
	"ookami/internal/machine"
	"ookami/internal/parexec"
	"ookami/internal/perfmodel"
	"ookami/internal/stats"
	"ookami/internal/toolchain"
)

// unchecked names the artifact that has no byte-exact golden: its ULP
// row is sampled, and value tests pin it instead.
const unchecked = "expstudy"

// warmPasses is how many memo-hit passes figures.warm_pass_s takes the
// median of.
const warmPasses = 5

// figuresRun regenerates every artifact on a fresh memo engine per pass,
// in paper order as ookami-figures does, and compares each CSV with the
// committed results. The figure run has no random input: the seed
// changes nothing, so its numbers compare across seeds.
type figuresRun struct {
	items  []figures.Item
	golden map[string]string // id -> results/<id>.csv
	last   *parexec.Engine   // engine of the latest pass
	memo   parexec.MemoMetrics
	passes int
}

// setupFigures loads the goldens and runs one untimed warm-up pass.
func setupFigures(int64) (func() (runner, error), error) {
	return func() (runner, error) {
		r := &figuresRun{items: figureItems(), golden: map[string]string{}}
		for _, it := range r.items {
			if it.ID == unchecked {
				continue
			}
			data, err := os.ReadFile(filepath.Join("results", it.ID+".csv"))
			if err != nil {
				return nil, fmt.Errorf("figures: golden: %w", err)
			}
			r.golden[it.ID] = string(data)
		}
		if bad := r.pass(newPhase(), 0); bad != "" {
			return nil, fmt.Errorf("figures: warm-up pass: %s differs from results/%s.csv", bad, bad)
		}
		return r, nil
	}, nil
}

// pass regenerates every artifact on a fresh engine and returns the id
// of the first artifact whose CSV differs from its golden, or "".
func (r *figuresRun) pass(ph *phase, op int) string {
	eng := parexec.NewSerial()
	figures.SetEngine(eng)
	defer figures.SetEngine(nil)
	region := opRegion(op)
	csv := make([]string, len(r.items))
	t0 := time.Now()
	for i, it := range r.items {
		sp := begin()
		t := time.Now()
		tab := it.Generate()
		ph.part(it.ID, time.Since(t))
		sp.end("figures", it.ID, region, tidMain)
		csv[i] = tab.CSV()
	}
	ph.lat = append(ph.lat, ms(time.Since(t0)))
	r.last = eng
	m := eng.MemoMetrics()
	r.memo.Hits += m.Hits
	r.memo.Misses += m.Misses
	r.memo.Evictions += m.Evictions
	r.passes++
	for i, it := range r.items {
		if want, ok := r.golden[it.ID]; ok && csv[i] != want {
			ph.failed++
			return it.ID
		}
	}
	ph.ok++
	return ""
}

func (r *figuresRun) measure(ph *phase, deadline time.Time, maxOps int) {
	r.memo, r.passes = parexec.MemoMetrics{}, 0
	for op := 0; time.Now().Before(deadline) && (maxOps == 0 || op < maxOps); op++ {
		r.pass(ph, op)
	}
}

func (r *figuresRun) finish(*phase) {}

func (r *figuresRun) layers(ph *phase, out map[string]float64) {
	for _, it := range r.items {
		out["figures."+it.ID+"_ms"] = ph.partMedian(it.ID)
	}
	memoPerOp(r.memo, r.passes, out)
	// The engine of the last pass holds every answer: a second pass on
	// it is all memo hits, and cold minus warm is the model-miss cost.
	figures.SetEngine(r.last)
	defer figures.SetEngine(nil)
	var warm []float64
	for k := 0; k < warmPasses; k++ {
		t0 := time.Now()
		for _, it := range r.items {
			_ = it.Generate().CSV()
		}
		warm = append(warm, time.Since(t0).Seconds())
	}
	out["figures.warm_pass_s"] = stats.Median(warm)
}

// memoPerOp reports memo counters per operation; for a fixed workload
// they repeat exactly from run to run.
func memoPerOp(m parexec.MemoMetrics, ops int, out map[string]float64) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	out["parexec.hits"] = float64(m.Hits) / n
	out["parexec.misses"] = float64(m.Misses) / n
	out["parexec.evictions"] = float64(m.Evictions) / n
	if m.Hits+m.Misses > 0 {
		out["parexec.hit_ratio"] = float64(m.Hits) / float64(m.Hits+m.Misses)
	}
}

// probe replays the model queries behind a figure pass.
func (r *figuresRun) probe(out map[string]float64) probeResult {
	return replayModel(allModelTuples(), r.last, out)
}

func (r *figuresRun) close() {}

// modelTuple is one (toolchain, loop, machine) query of the model.
type modelTuple struct {
	tc toolchain.Toolchain
	l  toolchain.Loop
	m  machine.Machine
}

// allModelTuples lists every loop compiled by every toolchain for every
// machine it targets that has a scheduling profile: the space the
// figure engine's LoopCycles queries are drawn from.
func allModelTuples() []modelTuple {
	var out []modelTuple
	for _, tc := range toolchain.All {
		for _, m := range machine.All {
			if _, ok := perfmodel.ProfileFor(m.Name); !ok || !tc.Supports(m) {
				continue
			}
			for l := toolchain.LoopSimple; l <= toolchain.LoopStencil; l++ {
				out = append(out, modelTuple{tc, l, m})
			}
		}
	}
	return out
}

// probeResult counts probe calls and the ones whose output was wrong.
type probeResult struct{ attempted, failed int }

// replayModel runs each tuple through Engine.Run twice on a fresh
// engine: the first round misses and times Toolchain.Compile and
// CompiledLoop.CyclesPerElement inside the engine, the second round
// hits. Each answer is compared with check's LoopCycles, the path the
// figures take.
func replayModel(tuples []modelTuple, check *parexec.Engine, out map[string]float64) probeResult {
	eng := parexec.NewSerial()
	defer eng.Close()
	var compile, sched []float64
	var res probeResult
	n := 0
	for round := 0; round < 2; round++ {
		for _, q := range tuples {
			region := probeRegion(n)
			n++
			prof, _ := perfmodel.ProfileFor(q.m.Name)
			key := fmt.Sprintf("%s|%s|%d|%s", q.tc.Name, q.tc.Version, int(q.l), q.m.Name)
			sp := begin()
			v := eng.Run("toolchain.CyclesPerElement", key, func() any {
				s := begin()
				t := time.Now()
				c := q.tc.Compile(q.l, q.m)
				compile = append(compile, ms(time.Since(t))*1e3)
				s.end("toolchain", "Compile", region, tidProbe)
				s = begin()
				t = time.Now()
				cpe := c.CyclesPerElement(prof)
				sched = append(sched, ms(time.Since(t))*1e3)
				s.end("perfmodel", "CyclesPerElement", region, tidProbe)
				return cpe
			}).(float64)
			sp.end("parexec", "Run", region, tidProbe)
			res.attempted++
			if math.Float64bits(v) != math.Float64bits(check.LoopCycles(q.tc, q.l, q.m)) {
				res.failed++
			}
		}
	}
	out["toolchain.compile_us"] = stats.Median(compile)
	out["perfmodel.schedule_us"] = stats.Median(sched)
	return res
}
