package trace

import (
	"bytes"
	"strings"
	"testing"
)

// summaryFixture models one Dynamic for-region over [0,24) on 2
// workers, one barrier phase with 2 participants, and one bench phase.
func summaryFixture() *Trace {
	return &Trace{
		Events: []Event{
			// Region span: [0, 24) on 2 workers, 10µs wall.
			{TS: 0, Dur: 10000, Ph: PhaseSpan, TID: RegionTID, Cat: CatOMP,
				Name: NameFor, Region: "for#1(Dynamic)",
				Args: [3]Arg{{Key: ArgLo, Val: 0}, {Key: ArgN, Val: 24}, {Key: ArgWorkers, Val: 2}}},
			// tid 0: two chunks of 8; tid 1: one chunk of 8.
			{TS: 100, Ph: PhaseInstant, TID: 0, Cat: CatOMP, Name: NameChunk,
				Region: "for#1(Dynamic)", Args: [3]Arg{{Key: ArgLo, Val: 0}, {Key: ArgN, Val: 8}}},
			{TS: 200, Ph: PhaseInstant, TID: 1, Cat: CatOMP, Name: NameChunk,
				Region: "for#1(Dynamic)", Args: [3]Arg{{Key: ArgLo, Val: 8}, {Key: ArgN, Val: 8}}},
			{TS: 300, Ph: PhaseInstant, TID: 0, Cat: CatOMP, Name: NameChunk,
				Region: "for#1(Dynamic)", Args: [3]Arg{{Key: ArgLo, Val: 16}, {Key: ArgN, Val: 8}}},
			// Work spans: tid 0 ends at 9500, tid 1 at 6000 -> join skew 4000.
			{TS: 50, Dur: 9450, Ph: PhaseSpan, TID: 0, Cat: CatOMP,
				Name: NameWork, Region: "for#1(Dynamic)"},
			{TS: 60, Dur: 5940, Ph: PhaseSpan, TID: 1, Cat: CatOMP,
				Name: NameWork, Region: "for#1(Dynamic)"},
			// One MPI barrier phase, waits 100ns and 700ns.
			{TS: 11000, Dur: 700, Ph: PhaseSpan, TID: 0, Cat: CatMPI,
				Name: NameBarrierWait, Region: "barrier#0"},
			{TS: 11600, Dur: 100, Ph: PhaseSpan, TID: 1, Cat: CatMPI,
				Name: NameBarrierWait, Region: "barrier#0"},
			// One bench runner phase.
			{TS: 12000, Dur: 2000, Ph: PhaseSpan, TID: 0, Cat: CatBench,
				Name: NameSamples, Region: "loops/simple",
				Args: [3]Arg{{Key: ArgAttempt, Val: 1}, {Key: ArgN, Val: 5}, {Key: ArgCovPPM, Val: 12300}}},
			// A watchdog instant.
			{TS: 13000, Ph: PhaseInstant, TID: 1, Cat: CatMPI,
				Name: NameWatchdog, Region: "barrier#0"},
		},
		Counters: []Counter{{Cat: CatOMP, Name: CounterPagesTouched, TID: 0, Val: 42}},
		Wall:     15000,
	}
}

func TestSummarizeAggregates(t *testing.T) {
	s := summaryFixture().Summarize()

	if len(s.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(s.Regions))
	}
	r := s.Regions[0]
	if r.Region != "for#1(Dynamic)" || r.Kind != NameFor || r.Workers != 2 || r.N != 24 {
		t.Fatalf("region header wrong: %+v", r)
	}
	if len(r.Threads) != 2 {
		t.Fatalf("got %d threads, want 2", len(r.Threads))
	}
	t0, t1 := r.Threads[0], r.Threads[1]
	if t0.TID != 0 || t0.Iters != 16 || t0.Chunks != 2 {
		t.Fatalf("tid 0 summary wrong: %+v", t0)
	}
	if t1.TID != 1 || t1.Iters != 8 || t1.Chunks != 1 {
		t.Fatalf("tid 1 summary wrong: %+v", t1)
	}
	if r.ChunkHist[8] != 3 {
		t.Fatalf("chunk hist = %v, want 8 -> 3", r.ChunkHist)
	}
	// Region ends at 10000; tid 1's work ends at 6000: skew 4000.
	if r.MaxSkew != 4000 {
		t.Fatalf("MaxSkew = %d, want 4000", r.MaxSkew)
	}

	if len(s.Barriers) != 1 {
		t.Fatalf("got %d barriers, want 1", len(s.Barriers))
	}
	b := s.Barriers[0]
	if b.Ranks != 2 || b.MaxWait != 700 || b.MinWait != 100 {
		t.Fatalf("barrier summary wrong: %+v", b)
	}

	if len(s.Bench) != 1 || s.Bench[0].Workload != "loops/simple" ||
		s.Bench[0].Attempt != 1 || s.Bench[0].CovPPM != 12300 {
		t.Fatalf("bench phases wrong: %+v", s.Bench)
	}
	if len(s.Instants) != 1 || s.Instants[0].Name != NameWatchdog {
		t.Fatalf("instants wrong: %+v", s.Instants)
	}
}

func TestWriteSummaryRendersKeyNumbers(t *testing.T) {
	var sb strings.Builder
	if err := summaryFixture().WriteSummary(&sb); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"for#1(Dynamic)",
		"iters=16",
		"iters=8",
		"8×3",          // chunk histogram
		"barrier#0",    // barrier section
		"loops/simple", // bench section
		"watchdog",     // instant section
		"pages.touched",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestBarrierPhaseArgSummarizesAsRegion holds wait spans and a
// watchdog instant that carry their phase in ArgPhase, directly and
// after a Chrome JSON round trip, to the summary text of the same
// events with the phase in their Region, the form older trace files
// hold.
func TestBarrierPhaseArgSummarizesAsRegion(t *testing.T) {
	inRegion, inArg := &Trace{Wall: 5000}, &Trace{Wall: 5000}
	for i, phase := range []int64{0, 0, 1, 1} {
		ev := Event{TS: int64(100 * i), Dur: int64(10 + 7*i), Ph: PhaseSpan, TID: i % 2,
			Cat: CatOMP, Name: NameBarrierWait, Region: "barrier3#" + Itoa(phase)}
		inRegion.Events = append(inRegion.Events, ev)
		ev.Region, ev.Args[0] = "barrier3", Arg{Key: ArgPhase, Val: phase}
		inArg.Events = append(inArg.Events, ev)
	}
	fire := Event{TS: 450, Ph: PhaseInstant, TID: 1, Cat: CatMPI, Name: NameWatchdog, Region: "barrier3#2"}
	inRegion.Events = append(inRegion.Events, fire)
	fire.Region, fire.Args[0] = "barrier3", Arg{Key: ArgPhase, Val: 2}
	inArg.Events = append(inArg.Events, fire)
	var buf bytes.Buffer
	if err := inArg.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	roundTrip, err := ReadChrome(&buf)
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	summary := func(tr *Trace) string {
		var sb strings.Builder
		if err := tr.WriteSummary(&sb); err != nil {
			t.Fatalf("WriteSummary: %v", err)
		}
		return sb.String()
	}
	want := summary(inRegion)
	if !strings.Contains(want, "barrier3#1: participants=2") || !strings.Contains(want, "region=barrier3#2 ") {
		t.Fatalf("summary lacks phase 1 of barrier3 or the watchdog's phase 2:\n%s", want)
	}
	for name, tr := range map[string]*Trace{"phase arg": inArg, "round trip": roundTrip} {
		if got := summary(tr); got != want {
			t.Errorf("%s: summary\n%s\nwant\n%s", name, got, want)
		}
	}
}

func TestChunkHistLineCapsBins(t *testing.T) {
	hist := map[int64]int64{}
	for i := int64(1); i <= 12; i++ {
		hist[i] = i
	}
	line := chunkHistLine(hist)
	if !strings.Contains(line, "(4 more)") {
		t.Fatalf("expected overflow marker in %q", line)
	}
}

func TestFmtNS(t *testing.T) {
	cases := map[int64]string{
		5:          "5ns",
		1500:       "1.5µs",
		2500000:    "2.500ms",
		3200000000: "3.200s",
	}
	for in, want := range cases {
		if got := fmtNS(in); got != want {
			t.Errorf("fmtNS(%d) = %q, want %q", in, got, want)
		}
	}
}
