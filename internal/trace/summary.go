package trace

// The plain-text summary: the per-region numbers the paper's analysis
// actually reads — iterations per thread, chunk-size distribution, and
// barrier skew — aggregated from the raw event stream.

import (
	"fmt"
	"io"
	"sort"
)

// regionSummary aggregates one parallel region (a for/parallel span
// and everything tied to its Region key).
type regionSummary struct {
	Region  string
	Cat     string
	Kind    string // "for" or "parallel"
	TS, Dur int64
	Lo, N   int64
	Workers int64
	Threads []threadSummary
	// ChunkHist maps chunk size -> grant count across all threads.
	ChunkHist map[int64]int64
	// MaxSkew is the largest implicit-join wait: region end minus the
	// earliest thread end (0 for a single thread).
	MaxSkew int64
}

// threadSummary is one thread's share of a region.
type threadSummary struct {
	TID    int
	Iters  int64
	Chunks int64
	Work   int64 // ns in the work span
	Skew   int64 // region end - this thread's work end (join wait)
}

// barrierSummary aggregates one barrier phase across participants.
type barrierSummary struct {
	Region  string
	Cat     string
	TS      int64
	Ranks   int
	MaxWait int64
	MinWait int64
}

// benchPhase is one runner phase span.
type benchPhase struct {
	Workload string
	Name     string
	TS, Dur  int64
	Attempt  int64
	N        int64
	CovPPM   int64
}

// Summary is the aggregated view WriteSummary renders.
type Summary struct {
	Regions  []regionSummary
	Barriers []barrierSummary
	Bench    []benchPhase
	Counters []Counter
	Events   int
	Dropped  int64
	Wall     int64
	// Instants keeps non-span oddities (watchdog fires) visible.
	Instants []Event
}

// Summarize aggregates the trace into the per-region statistics.
func (tr *Trace) Summarize() *Summary {
	s := &Summary{
		Counters: tr.Counters,
		Events:   len(tr.Events),
		Dropped:  tr.Dropped,
		Wall:     tr.Wall,
	}
	regions := map[string]*regionSummary{}
	var regionOrder []string
	region := func(key string) *regionSummary {
		r := regions[key]
		if r == nil {
			r = &regionSummary{Region: key, ChunkHist: map[int64]int64{}}
			regions[key] = r
			regionOrder = append(regionOrder, key)
		}
		return r
	}
	type workSpan struct {
		tid      int
		end, dur int64
	}
	work := map[string][]workSpan{}
	iters := map[string]map[int]*threadSummary{}
	barriers := map[barrierKey]*barrierSummary{}
	var barrierOrder []barrierKey

	for i := range tr.Events {
		ev := &tr.Events[i]
		switch {
		case ev.Ph == PhaseSpan && (ev.Name == NameFor || ev.Name == NameParallel):
			r := region(ev.Region)
			r.Cat, r.Kind = ev.Cat, ev.Name
			r.TS, r.Dur = ev.TS, ev.Dur
			r.Lo, r.N, r.Workers = ev.Arg(ArgLo), ev.Arg(ArgN), ev.Arg(ArgWorkers)
		case ev.Ph == PhaseSpan && ev.Name == NameWork:
			work[ev.Region] = append(work[ev.Region], workSpan{tid: ev.TID, end: ev.TS + ev.Dur, dur: ev.Dur})
		case ev.Name == NameChunk:
			m := iters[ev.Region]
			if m == nil {
				m = map[int]*threadSummary{}
				iters[ev.Region] = m
			}
			t := m[ev.TID]
			if t == nil {
				t = &threadSummary{TID: ev.TID}
				m[ev.TID] = t
			}
			n := ev.Arg(ArgN)
			t.Iters += n
			t.Chunks++
			region(ev.Region).ChunkHist[n]++
		case ev.Ph == PhaseSpan && ev.Name == NameBarrierWait:
			key := barrierKey{cat: ev.Cat, region: ev.Region}
			key.phase, key.phased = ev.lookupArg(ArgPhase)
			b := barriers[key]
			if b == nil {
				b = &barrierSummary{Region: key.name(), Cat: ev.Cat, TS: ev.TS, MinWait: ev.Dur}
				barriers[key] = b
				barrierOrder = append(barrierOrder, key)
			}
			b.Ranks++
			if ev.Dur > b.MaxWait {
				b.MaxWait = ev.Dur
			}
			if ev.Dur < b.MinWait {
				b.MinWait = ev.Dur
			}
			if ev.TS < b.TS {
				b.TS = ev.TS
			}
		case ev.Cat == CatBench && ev.Ph == PhaseSpan:
			s.Bench = append(s.Bench, benchPhase{
				Workload: ev.Region,
				Name:     ev.Name,
				TS:       ev.TS,
				Dur:      ev.Dur,
				Attempt:  ev.Arg(ArgAttempt),
				N:        ev.Arg(ArgN),
				CovPPM:   ev.Arg(ArgCovPPM),
			})
		case ev.Ph == PhaseInstant:
			s.Instants = append(s.Instants, *ev)
		}
	}

	// Merge work spans and iteration counts into each region, compute
	// join-wait skew against the region end.
	for _, key := range regionOrder {
		r := regions[key]
		regionEnd := r.TS + r.Dur
		perTid := iters[key]
		if perTid == nil {
			perTid = map[int]*threadSummary{}
		}
		for _, w := range work[key] {
			t := perTid[w.tid]
			if t == nil {
				t = &threadSummary{TID: w.tid}
				perTid[w.tid] = t
			}
			t.Work = w.dur
			if skew := regionEnd - w.end; skew > 0 {
				t.Skew = skew
			}
		}
		tids := make([]int, 0, len(perTid))
		for tid := range perTid {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			t := perTid[tid]
			r.Threads = append(r.Threads, *t)
			if t.Skew > r.MaxSkew {
				r.MaxSkew = t.Skew
			}
		}
		s.Regions = append(s.Regions, *r)
	}
	for _, key := range barrierOrder {
		s.Barriers = append(s.Barriers, *barriers[key])
	}
	sort.SliceStable(s.Regions, func(i, j int) bool { return s.Regions[i].TS < s.Regions[j].TS })
	sort.SliceStable(s.Barriers, func(i, j int) bool { return s.Barriers[i].TS < s.Barriers[j].TS })
	sort.SliceStable(s.Bench, func(i, j int) bool { return s.Bench[i].TS < s.Bench[j].TS })
	return s
}

// barrierKey identifies one barrier phase: the Region of its wait
// spans, plus their ArgPhase when they carry one. A span without the
// arg (one from a trace written before the arg existed) has the phase
// in its Region already.
type barrierKey struct {
	cat, region string
	phase       int64
	phased      bool
}

// name renders the phase as "barrier<instance>#<phase>".
func (k barrierKey) name() string {
	if !k.phased {
		return k.region
	}
	return k.region + "#" + Itoa(k.phase)
}

// WriteSummary renders the aggregated text summary.
func (tr *Trace) WriteSummary(w io.Writer) error {
	s := tr.Summarize()
	p := &errWriter{w: w}
	p.f("trace summary: %d event(s), %d dropped, wall %s\n",
		s.Events, s.Dropped, fmtNS(s.Wall))

	for _, r := range s.Regions {
		p.f("\n[%s] %s", r.Cat, r.Region)
		if r.Kind == NameFor {
			p.f(" [%d,%d)", r.Lo, r.Lo+r.N)
		}
		p.f(" workers=%d wall=%s\n", r.Workers, fmtNS(r.Dur))
		for _, t := range r.Threads {
			p.f("  tid %2d: iters=%-8d chunks=%-5d work=%-10s join-wait=%s\n",
				t.TID, t.Iters, t.Chunks, fmtNS(t.Work), fmtNS(t.Skew))
		}
		if len(r.ChunkHist) > 0 {
			p.f("  chunk sizes: %s\n", chunkHistLine(r.ChunkHist))
		}
		p.f("  max barrier skew: %s\n", fmtNS(r.MaxSkew))
	}

	for _, b := range s.Barriers {
		p.f("\n[%s] %s: participants=%d wait min=%s max=%s skew=%s\n",
			b.Cat, b.Region, b.Ranks, fmtNS(b.MinWait), fmtNS(b.MaxWait), fmtNS(b.MaxWait-b.MinWait))
	}

	if len(s.Bench) > 0 {
		p.f("\n[bench] runner phases:\n")
		for _, b := range s.Bench {
			p.f("  %-28s %-8s", b.Workload, b.Name)
			if b.Attempt > 0 {
				p.f(" attempt=%d", b.Attempt)
			}
			if b.N > 0 {
				p.f(" n=%d", b.N)
			}
			if b.CovPPM > 0 {
				p.f(" cov=%.2f%%", float64(b.CovPPM)/1e4)
			}
			p.f(" wall=%s\n", fmtNS(b.Dur))
		}
	}

	for _, ev := range s.Instants {
		// A watchdog instant names its barrier phase as a wait span does.
		key := barrierKey{region: ev.Region}
		key.phase, key.phased = ev.lookupArg(ArgPhase)
		p.f("\n[%s] instant %s at %s region=%s tid=%d\n",
			ev.Cat, ev.Name, fmtNS(ev.TS), key.name(), ev.TID)
	}

	if len(s.Counters) > 0 {
		p.f("\ncounters:\n")
		for _, c := range s.Counters {
			p.f("  %s/%s tid=%d: %d\n", c.Cat, c.Name, c.TID, c.Val)
		}
	}
	return p.err
}

// chunkHistLine renders the chunk-size histogram, largest count first,
// capped to keep wide dynamic schedules readable.
func chunkHistLine(hist map[int64]int64) string {
	type bin struct{ size, count int64 }
	bins := make([]bin, 0, len(hist))
	for sz, n := range hist {
		bins = append(bins, bin{size: sz, count: n})
	}
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].count != bins[j].count {
			return bins[i].count > bins[j].count
		}
		return bins[i].size < bins[j].size
	})
	const maxBins = 8
	out := ""
	for i, b := range bins {
		if i == maxBins {
			out += fmt.Sprintf(" … (%d more)", len(bins)-maxBins)
			break
		}
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d×%d", b.size, b.count)
	}
	return out
}

// fmtNS renders nanoseconds at a human grain.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// errWriter accumulates the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (p *errWriter) f(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}
