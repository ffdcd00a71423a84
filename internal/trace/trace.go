// Package trace is the reproduction's runtime observability layer: a
// low-overhead, concurrency-safe event and metrics collector that the
// simulated OMP runtime (parallel regions, per-schedule chunk grants,
// barrier waits, placement touches), the MPI runtime (per-rank barrier
// entry/exit, message counters, watchdog fires) and the benchmark
// runner (warmup/sample/retry phases) emit into.
//
// The paper's analysis lives on per-phase measurement — per-thread
// iteration balance, the CMG-0 versus first-touch placement effect,
// barrier wait skew — not end-to-end wall clock. This package makes
// those quantities observable on every run without changing what runs:
// tracing is off unless the OOKAMI_TRACE environment variable (or a
// driver's -trace flag) enables it, and the disabled fast path is a
// single atomic pointer load returning nil.
//
// Collection is a set of ring buffers sharded by thread id, each
// guarded by its own mutex, so concurrent team threads and ranks do
// not serialize on one lock. When a shard's ring fills, the oldest
// events are overwritten (newest-wins) and the drop is counted; the
// exporters report the count so a truncated trace is never mistaken
// for a complete one. Timestamps are nanoseconds on Go's monotonic
// clock, relative to the moment tracing was enabled.
//
// Snapshots export two ways: Chrome trace_event JSON (load the file at
// chrome://tracing or https://ui.perfetto.dev) and a plain-text
// per-region summary (iterations per thread, chunk-size histogram, max
// barrier skew). cmd/ookami-trace summarizes and converts trace files
// after the fact. See docs/OBSERVABILITY.md.
package trace

import (
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event phases, following the Chrome trace_event vocabulary.
const (
	// PhaseSpan is a complete span: TS..TS+Dur ("X").
	PhaseSpan = 'X'
	// PhaseInstant is a point event ("i").
	PhaseInstant = 'i'
	// PhaseCounter is a counter sample ("C"); Args[0] holds the value.
	PhaseCounter = 'C'
)

// Arg is one small key/value attachment on an event. Keys are expected
// to be constant strings so emission does not allocate.
type Arg struct {
	Key string
	Val int64
}

// Event is one recorded occurrence. The struct is fixed-size — no maps,
// no interfaces — so emission is a struct copy into a preallocated ring.
type Event struct {
	TS   int64 // ns since the tracer epoch (monotonic)
	Dur  int64 // ns; meaningful for PhaseSpan
	Ph   byte  // PhaseSpan, PhaseInstant or PhaseCounter
	TID  int   // thread id / rank; -1 for region-level events
	Cat  string
	Name string
	// Region groups events of one logical unit: a parallel-for
	// instance ("for#3(Dynamic)"), a barrier instance ("barrier7"), or a
	// benchmark workload name.
	Region string
	Args   [3]Arg
}

// Counter is one accumulated counter, keyed by category, name and
// thread id (threads of a team, ranks of a world, NUMA domains of a
// placement tracker).
type Counter struct {
	Cat  string
	Name string
	TID  int
	Val  int64
}

// Trace is an exported snapshot: events in timestamp order, final
// counter values, and collection metadata.
type Trace struct {
	Events   []Event
	Counters []Counter
	// Dropped counts events overwritten by ring wrap-around; a nonzero
	// value means the trace shows only the newest window.
	Dropped int64
	// Wall is the ns between enabling and the snapshot.
	Wall int64
}

// nShards fixes the number of ring shards; thread ids map onto shards
// modulo this, so team threads mostly write to distinct rings.
const nShards = 16

// DefaultShardEvents is each shard's ring capacity unless
// OOKAMI_TRACE_BUF overrides it.
const DefaultShardEvents = 4096

type shard struct {
	mu       sync.Mutex
	ring     []Event
	next     int   // next write index
	total    int64 // events ever written to this shard
	counters map[counterKey]int64
}

type counterKey struct {
	cat, name string
	tid       int
}

type tracer struct {
	epoch  time.Time
	shards [nShards]*shard
}

// active is the enabled tracer, nil when tracing is off. A single
// atomic load decides the disabled fast path.
var active atomic.Pointer[tracer]

// stateMu serializes Enable/Disable/Stop against each other (emission
// never takes it).
var stateMu sync.Mutex

func init() {
	if on, _ := envRequest(); on {
		Enable()
	}
}

// envRequest interprets OOKAMI_TRACE: unset/0/false/off disable, 1/
// true/on/yes enable without a default output path, and any other
// value enables with that value as the output path for Finish.
func envRequest() (on bool, path string) {
	v := os.Getenv("OOKAMI_TRACE")
	switch strings.ToLower(v) {
	case "", "0", "false", "off", "no":
		return false, ""
	case "1", "true", "on", "yes":
		return true, ""
	}
	return true, v
}

// EnvPath returns the output path named by OOKAMI_TRACE, if its value
// is a path rather than a boolean.
func EnvPath() string {
	_, path := envRequest()
	return path
}

// shardEvents resolves the per-shard ring capacity, honoring
// OOKAMI_TRACE_BUF when it parses as a positive integer.
func shardEvents() int {
	if v := os.Getenv("OOKAMI_TRACE_BUF"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return DefaultShardEvents
}

// Enabled reports whether tracing is collecting. The runtimes guard
// argument preparation on it; emission itself re-checks, so the check
// is advisory and race-free.
//
//ookami:hot the disabled fast path runs inside kernel parallel loops
func Enabled() bool { return active.Load() != nil }

// Enable starts collection with a fresh epoch and empty buffers. It is
// idempotent: enabling an enabled tracer keeps the existing buffers.
func Enable() {
	stateMu.Lock()
	defer stateMu.Unlock()
	if active.Load() != nil {
		return
	}
	ringCap := shardEvents()
	t := &tracer{epoch: time.Now()}
	for i := range t.shards {
		t.shards[i] = &shard{
			ring:     make([]Event, ringCap),
			counters: make(map[counterKey]int64),
		}
	}
	active.Store(t)
}

// Disable stops collection and discards everything collected.
func Disable() {
	stateMu.Lock()
	defer stateMu.Unlock()
	active.Store(nil)
}

// Stop snapshots the collected trace and disables collection. It
// returns nil when tracing was not enabled.
func Stop() *Trace {
	stateMu.Lock()
	defer stateMu.Unlock()
	t := active.Load()
	if t == nil {
		return nil
	}
	active.Store(nil)
	return t.snapshot()
}

// Snapshot copies the collected trace without stopping collection. It
// returns nil when tracing is not enabled.
func Snapshot() *Trace {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.snapshot()
}

// Now returns the current trace timestamp (ns since the epoch), or 0
// when tracing is disabled.
//
//ookami:hot called per chunk grant and barrier wait on traced runs
func Now() int64 {
	t := active.Load()
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Emit records the event. When tracing is disabled it is a no-op; the
// caller is expected to have skipped argument construction via
// Enabled().
//
//ookami:hot called per chunk grant and barrier wait on traced runs
func Emit(ev Event) {
	t := active.Load()
	if t == nil {
		return
	}
	s := t.shards[shardFor(ev.TID)]
	s.mu.Lock()
	s.ring[s.next] = ev
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
	}
	s.total++
	s.mu.Unlock()
}

// Count accumulates delta into the (cat, name, tid) counter. Counters
// are cheap totals for high-frequency occurrences (messages sent,
// pages first-touched) that would flood the event ring.
//
//ookami:hot called per MPI send and per claimed page on traced runs
func Count(cat, name string, tid int, delta int64) {
	t := active.Load()
	if t == nil {
		return
	}
	s := t.shards[shardFor(tid)]
	k := counterKey{cat: cat, name: name, tid: tid}
	s.mu.Lock()
	s.counters[k] += delta
	s.mu.Unlock()
}

func shardFor(tid int) int {
	if tid < 0 {
		tid = -tid
	}
	return tid % nShards
}

// snapshot merges the shards into one time-ordered view.
func (t *tracer) snapshot() *Trace {
	tr := &Trace{Wall: int64(time.Since(t.epoch))}
	for _, s := range t.shards {
		s.mu.Lock()
		kept := int64(len(s.ring))
		if s.total < kept {
			kept = s.total
		}
		tr.Dropped += s.total - kept
		// Ring order: oldest surviving event first.
		start := 0
		if s.total > int64(len(s.ring)) {
			start = s.next
		}
		for i := int64(0); i < kept; i++ {
			tr.Events = append(tr.Events, s.ring[(start+int(i))%len(s.ring)])
		}
		for k, v := range s.counters {
			tr.Counters = append(tr.Counters, Counter{Cat: k.cat, Name: k.name, TID: k.tid, Val: v})
		}
		s.mu.Unlock()
	}
	SortEvents(tr.Events)
	sortCounters(tr.Counters)
	return tr
}

// Finish stops collection and writes the snapshot: a Chrome
// trace_event JSON file when path is non-empty, and a text summary to
// w when w is non-nil. It is a no-op returning nil when tracing was
// not enabled — drivers call it unconditionally at exit.
func Finish(path string, w io.Writer) error {
	tr := Stop()
	if tr == nil {
		return nil
	}
	if path != "" {
		if err := tr.WriteFile(path); err != nil {
			return err
		}
	}
	if w != nil {
		return tr.WriteSummary(w)
	}
	return nil
}

// SortEvents orders events by timestamp, breaking ties by thread id so
// snapshots of concurrent emission are deterministic for a fixed input.
func SortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].TID < evs[j].TID
	})
}

// sortCounters orders counters by category, name, then thread id.
func sortCounters(cs []Counter) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Cat != cs[j].Cat {
			return cs[i].Cat < cs[j].Cat
		}
		if cs[i].Name != cs[j].Name {
			return cs[i].Name < cs[j].Name
		}
		return cs[i].TID < cs[j].TID
	})
}

// Itoa renders an integer for region names like "for#12".
func Itoa(n int64) string { return strconv.FormatInt(n, 10) }
