package trace

// The event vocabulary shared by the emitting runtimes and the
// summary aggregator. Emitters use these constants so the summary can
// reconstruct regions without a schema negotiation; unknown
// categories/names still export to Chrome JSON and list under the
// generic sections.

// Categories.
const (
	// CatOMP tags events from the simulated OpenMP runtime.
	CatOMP = "omp"
	// CatMPI tags events from the simulated MPI runtime.
	CatMPI = "mpi"
	// CatBench tags events from the benchmark runner.
	CatBench = "bench"
)

// Event names.
const (
	// NameFor is a parallel-for region span (TID -1, Region
	// "for#N(Sched)", args lo/n/workers).
	NameFor = "for"
	// NameParallel is an explicit parallel region span (TID -1).
	NameParallel = "parallel"
	// NameWork is one thread's span inside a region (per TID).
	NameWork = "work"
	// NameChunk is one chunk grant (instant, per TID, args lo/n).
	NameChunk = "chunk"
	// NameBarrierWait is one participant's barrier wait span (per
	// TID/rank). OMP and MPI barriers set Region "barrier<instance>"
	// and the phase in ArgPhase. The summary keys one barrier phase and
	// prints it as "barrier<instance>#<phase>", so distinct barrier
	// instances never merge.
	NameBarrierWait = "barrier.wait"
	// NameWatchdog is the MPI deadlock watchdog firing (instant,
	// Region "barrier<instance>", the phase in ArgPhase).
	NameWatchdog = "watchdog"
	// NameWarmup is a workload's warmup phase span (Region = workload).
	NameWarmup = "warmup"
	// NameSamples is one sample-set attempt span (Region = workload,
	// args attempt/n/cov_ppm).
	NameSamples = "samples"
	// NameBackoff is the CoV-gate backoff pause span before a retry.
	NameBackoff = "backoff"
)

// Arg keys.
const (
	// ArgLo is a range/chunk lower bound.
	ArgLo = "lo"
	// ArgN is an iteration/element/sample count.
	ArgN = "n"
	// ArgWorkers is the worker-goroutine count of a region.
	ArgWorkers = "workers"
	// ArgAttempt is the 1-based sample-set attempt number.
	ArgAttempt = "attempt"
	// ArgCovPPM is a coefficient of variation in parts per million
	// (args are integers; 1% = 10000).
	ArgCovPPM = "cov_ppm"
	// ArgPhase is the barrier phase a wait span waited in.
	ArgPhase = "phase"
)

// Counter names.
const (
	// CounterSendMsgs counts messages sent per rank.
	CounterSendMsgs = "send.msgs"
	// CounterSendBytes counts payload bytes sent per rank.
	CounterSendBytes = "send.bytes"
	// CounterPagesTouched counts pages first-touched per NUMA domain
	// (the TID slot holds the domain).
	CounterPagesTouched = "pages.touched"
)

// RegionTID is the TID used for region-level spans that belong to no
// single thread.
const RegionTID = -1

// Arg looks up a named arg on the event, returning 0 when absent.
func (ev *Event) Arg(key string) int64 {
	v, _ := ev.lookupArg(key)
	return v
}

// lookupArg looks up a named arg on the event and reports whether the
// event carries it.
func (ev *Event) lookupArg(key string) (int64, bool) {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}
