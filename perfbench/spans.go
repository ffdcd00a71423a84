package main

import (
	"sort"
	"strconv"
	"strings"

	"ookami/internal/trace"
)

// Spans this benchmark emits carry a Region starting with regionPrefix:
// "pb#op<n>" for the n-th operation of the traced phase and
// "pb#probe<n>" for a per-layer probe call. All spans of one operation
// share its Region. Spans from the runtimes (omp regions, mpi barriers)
// keep their own regions.
const regionPrefix = "pb#"

// Trace thread ids, chosen so the benchmark's spans land in ring shards
// the omp and mpi runtimes (thread ids -1, 0, 1, ...) do not flood.
const (
	tidMain   = 8  // the benchmark goroutine
	tidProbe  = 9  // per-layer probes
	tidClient = 10 // serve client c uses tidClient+c, and so do its server spans
)

// traceBufEvents is the per-shard ring size a traced run asks for; a
// traced phase stops before one client's shard could wrap.
const traceBufEvents = 16384

func opRegion(n int) string    { return regionPrefix + "op" + strconv.Itoa(n) }
func probeRegion(n int) string { return regionPrefix + "probe" + strconv.Itoa(n) }

// span is one open layer span. The zero value (tracing off) emits
// nothing, so an untraced run pays one atomic load per span.
type span struct {
	t0 int64
	on bool
}

func begin() span {
	if !trace.Enabled() {
		return span{}
	}
	return span{t0: trace.Now(), on: true}
}

// end emits the span under the layer category cat.
func (s span) end(cat, name, region string, tid int) {
	if !s.on {
		return
	}
	trace.Emit(trace.Event{
		TS:     s.t0,
		Dur:    trace.Now() - s.t0,
		Ph:     trace.PhaseSpan,
		TID:    tid,
		Cat:    cat,
		Name:   name,
		Region: region,
	})
}

// selfStat is one layer's share of a trace.
type selfStat struct {
	selfNS int64 // span time not covered by child spans
	spans  int
}

// selfTimes computes each category's self time: a span's duration minus
// the part of its interval that its children cover. A child lies inside
// the parent's interval and either shares its Region (the same
// operation) or, under a benchmark span, comes from a runtime (an omp or
// mpi span the benchmarked call caused).
func selfTimes(evs []trace.Event) map[string]selfStat {
	var spans []trace.Event
	for _, ev := range evs {
		if ev.Ph == trace.PhaseSpan {
			spans = append(spans, ev)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].TS < spans[j].TS })
	out := map[string]selfStat{}
	type interval struct{ lo, hi int64 }
	for i, p := range spans {
		end := p.TS + p.Dur
		mine := strings.HasPrefix(p.Region, regionPrefix)
		var kids []interval
		// Spans starting at p.TS may sort on either side of p.
		lo := i
		for lo > 0 && spans[lo-1].TS == p.TS {
			lo--
		}
		for j := lo; j < len(spans) && spans[j].TS <= end; j++ {
			c := spans[j]
			if j == i || c.TS+c.Dur > end {
				continue
			}
			if c.Dur == p.Dur && j < i {
				continue // identical interval: the earlier span is the parent
			}
			related := c.Region == p.Region || (mine && !strings.HasPrefix(c.Region, regionPrefix))
			if related {
				kids = append(kids, interval{c.TS, c.TS + c.Dur})
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered, reach int64 = 0, p.TS
		for _, k := range kids {
			if k.lo > reach {
				reach = k.lo
			}
			if k.hi > reach {
				covered += k.hi - reach
				reach = k.hi
			}
		}
		st := out[p.Cat]
		st.selfNS += p.Dur - covered
		st.spans++
		out[p.Cat] = st
	}
	return out
}
