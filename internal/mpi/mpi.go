// Package mpi is a small message-passing substrate: SPMD ranks run as
// goroutines and communicate through typed point-to-point channels, with
// the collectives the HPCC codes need (broadcast, allreduce, all-to-all,
// gather) and per-rank traffic accounting. The multi-node HPL and FFT
// experiments of Figure 9 are modeled analytically in internal/hpcc; this
// package complements them with *functionally* distributed versions of
// both algorithms (see dhpl.go and dfft.go), verified against the serial
// kernels, so the communication patterns the paper discusses — HPL's
// panel broadcasts, FFT's transposes — exist as real code.
package mpi

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ookami/internal/trace"
)

// World is a communicator: `size` ranks with all-to-all mailboxes.
type World struct {
	size      int
	mailboxes [][]chan any // mailboxes[src][dst]
	bytesSent []int64
	barrier   *barrier
}

// Comm is one rank's handle on the world.
type Comm struct {
	w    *World
	rank int
}

// Run executes fn on `size` ranks concurrently and waits for all of them.
// It returns the world for post-run inspection (traffic counters). A
// malformed OOKAMI_MPI_TIMEOUT is reported once on stderr (watchdog
// disabled) rather than silently ignored.
func Run(size int, fn func(c *Comm)) *World {
	if size < 1 {
		panic("mpi: size must be >= 1")
	}
	timeout, err := TimeoutFromEnv()
	if err != nil {
		warnTimeoutEnv(err)
	}
	w := &World{
		size:      size,
		mailboxes: make([][]chan any, size),
		bytesSent: make([]int64, size),
		barrier:   newBarrier(size, timeout),
	}
	for s := range w.mailboxes {
		w.mailboxes[s] = make([]chan any, size)
		for d := range w.mailboxes[s] {
			w.mailboxes[s][d] = make(chan any, 4)
		}
	}
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			fn(&Comm{w: w, rank: rank})
		}(r)
	}
	wg.Wait()
	return w
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// BytesSent returns the total bytes sent by rank r (post-run accounting).
func (w *World) BytesSent(r int) int64 { return atomic.LoadInt64(&w.bytesSent[r]) }

// TotalBytes returns the total traffic of the run.
func (w *World) TotalBytes() int64 {
	var t int64
	for r := range w.bytesSent {
		t += w.BytesSent(r)
	}
	return t
}

func payloadBytes(v any) int64 {
	switch x := v.(type) {
	case []float64:
		return int64(8 * len(x))
	case []complex128:
		return int64(16 * len(x))
	case float64:
		return 8
	case int:
		return 8
	default:
		return 8
	}
}

// Send delivers v to rank dst (buffered; blocks only if dst is 4 messages
// behind on this channel pair). Slices are copied so the sender may reuse
// its buffer — MPI semantics.
func (c *Comm) Send(dst int, v any) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	switch x := v.(type) {
	case []float64:
		v = append([]float64(nil), x...)
	case []complex128:
		v = append([]complex128(nil), x...)
	}
	nb := payloadBytes(v)
	atomic.AddInt64(&c.w.bytesSent[c.rank], nb)
	if trace.Enabled() {
		trace.Count(trace.CatMPI, trace.CounterSendMsgs, c.rank, 1)
		trace.Count(trace.CatMPI, trace.CounterSendBytes, c.rank, nb)
	}
	c.w.mailboxes[c.rank][dst] <- v
}

// Recv blocks until a message from src arrives and returns it.
func (c *Comm) Recv(src int) any {
	if src < 0 || src >= c.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	return <-c.w.mailboxes[src][c.rank]
}

// RecvF64 receives a []float64 from src.
func (c *Comm) RecvF64(src int) []float64 { return c.Recv(src).([]float64) }

// RecvC128 receives a []complex128 from src.
func (c *Comm) RecvC128(src int) []complex128 { return c.Recv(src).([]complex128) }

// Barrier synchronizes all ranks. With OOKAMI_MPI_TIMEOUT set (a
// time.Duration such as "2s"; default off), a barrier that does not
// complete within the timeout panics with a participant dump naming the
// ranks that never arrived, instead of hanging the whole suite on one
// lost rank.
func (c *Comm) Barrier() { c.w.barrier.wait(c.rank) }

// Bcast distributes root's buf to every rank; non-root ranks return the
// received copy (binomial-tree pattern, like a real MPI broadcast).
func (c *Comm) Bcast(root int, buf []float64) []float64 {
	// Rotate so the root is virtual rank 0.
	vr := (c.rank - root + c.Size()) % c.Size()
	if vr != 0 {
		src := ((vr - lowestBit(vr)) + root) % c.Size()
		buf = c.RecvF64(src)
	}
	for bit := nextPow2(c.Size()) / 2; bit > 0; bit /= 2 {
		if vr&(bit-1) == 0 && vr&bit == 0 {
			peer := vr | bit
			if peer < c.Size() {
				c.Send((peer+root)%c.Size(), buf)
			}
		}
	}
	return buf
}

func lowestBit(x int) int { return x & (-x) }

func nextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}

// AllreduceSum computes the element-wise sum of x across ranks; every
// rank returns the full result (gather-to-0 + broadcast).
func (c *Comm) AllreduceSum(x []float64) []float64 {
	if c.rank == 0 {
		sum := append([]float64(nil), x...)
		for src := 1; src < c.Size(); src++ {
			part := c.RecvF64(src)
			for i := range sum {
				sum[i] += part[i]
			}
		}
		return c.Bcast(0, sum)
	}
	c.Send(0, x)
	return c.Bcast(0, nil)
}

// AllreduceMaxLoc returns the global maximum of (val) and the rank/index
// that holds it — the pivot-search collective of a distributed LU.
func (c *Comm) AllreduceMaxLoc(val float64, idx int) (float64, int, int) {
	triple := []float64{val, float64(c.rank), float64(idx)}
	if c.rank == 0 {
		best := triple
		for src := 1; src < c.Size(); src++ {
			t := c.RecvF64(src)
			if t[0] > best[0] {
				best = t
			}
		}
		best = c.Bcast(0, best)
		return best[0], int(best[1]), int(best[2])
	}
	c.Send(0, triple)
	best := c.Bcast(0, nil)
	return best[0], int(best[1]), int(best[2])
}

// AlltoallC128 exchanges send[d] with every rank d; returns recv where
// recv[s] is the block sent by rank s — the FFT transpose collective.
func (c *Comm) AlltoallC128(send [][]complex128) [][]complex128 {
	if len(send) != c.Size() {
		panic("mpi: alltoall needs one block per rank")
	}
	recv := make([][]complex128, c.Size())
	// Self-copy without a channel round trip.
	recv[c.rank] = append([]complex128(nil), send[c.rank]...)
	// Phase pattern: at step s exchange with rank^s... simple ordered
	// exchange to avoid deadlock with buffered channels: send to all,
	// then receive from all (buffers sized to world).
	for d := 0; d < c.Size(); d++ {
		if d != c.rank {
			c.Send(d, send[d])
		}
	}
	for s := 0; s < c.Size(); s++ {
		if s != c.rank {
			recv[s] = c.RecvC128(s)
		}
	}
	return recv
}

// GatherF64 collects each rank's buf at the root (rank order); non-root
// ranks return nil.
func (c *Comm) GatherF64(root int, buf []float64) [][]float64 {
	if c.rank == root {
		out := make([][]float64, c.Size())
		out[root] = append([]float64(nil), buf...)
		for s := 0; s < c.Size(); s++ {
			if s != root {
				out[s] = c.RecvF64(s)
			}
		}
		return out
	}
	c.Send(root, buf)
	return nil
}

// TimeoutEnvError reports a rejected OOKAMI_MPI_TIMEOUT value. The
// watchdog falls back to its default (disabled), but the rejection is
// typed and warned about once instead of being silently swallowed — a
// suite "protected" by a mistyped timeout would otherwise hang exactly
// like one with no watchdog at all.
type TimeoutEnvError struct {
	Raw string // the environment value as given
	Err error  // why it was rejected
}

// Error implements error.
func (e *TimeoutEnvError) Error() string {
	return fmt.Sprintf("mpi: invalid OOKAMI_MPI_TIMEOUT %q: %v (deadlock watchdog disabled)", e.Raw, e.Err)
}

// Unwrap exposes the parse failure.
func (e *TimeoutEnvError) Unwrap() error { return e.Err }

// errNegativeTimeout rejects sub-zero durations.
var errNegativeTimeout = fmt.Errorf("negative duration")

// TimeoutFromEnv reads OOKAMI_MPI_TIMEOUT. Unset, empty, or "0" (any
// zero duration) disable the deadlock watchdog — the default. An
// unparsable or negative value returns a *TimeoutEnvError along with
// the disabled default.
func TimeoutFromEnv() (time.Duration, error) {
	v := os.Getenv("OOKAMI_MPI_TIMEOUT")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, &TimeoutEnvError{Raw: v, Err: err}
	}
	if d < 0 {
		return 0, &TimeoutEnvError{Raw: v, Err: errNegativeTimeout}
	}
	return d, nil
}

// timeoutWarned makes the env warning once-per-process; warnOut is a
// variable so tests can capture the warning.
var (
	timeoutWarned atomic.Bool
	warnOut       io.Writer = os.Stderr
)

// warnTimeoutEnv surfaces a rejected timeout value exactly once.
func warnTimeoutEnv(err error) {
	if timeoutWarned.CompareAndSwap(false, true) {
		fmt.Fprintln(warnOut, err)
	}
}

// barrier is a reusable phase barrier. Each phase has a release channel
// that the last arriving rank closes; waiting on a closed-only channel
// (instead of a sync.Cond) is what makes the deadlock watchdog possible,
// because a channel wait can be raced against a timer.
type barrier struct {
	mu      sync.Mutex
	n       int
	count   int
	region  string        // "barrier<instance>": the trace region of every phase
	phase   int64         // completed-phase counter, the trace spans' ArgPhase
	arrived []bool        // per rank: waiting in the current phase
	release chan struct{} // closed when the current phase completes
	timeout time.Duration // 0 = wait forever
}

// barrierSeq numbers barrier instances process-wide: sequential worlds
// all start their phase counter at 0, so the phase alone would merge
// unrelated barriers in a trace summary.
var barrierSeq int64

func newBarrier(n int, timeout time.Duration) *barrier {
	return &barrier{
		n:       n,
		region:  "barrier" + trace.Itoa(atomic.AddInt64(&barrierSeq, 1)),
		arrived: make([]bool, n),
		release: make(chan struct{}),
		timeout: timeout,
	}
}

func (b *barrier) wait(rank int) {
	traced := trace.Enabled()
	var t0 int64
	if traced {
		t0 = trace.Now()
	}
	b.mu.Lock()
	phase := b.phase
	b.arrived[rank] = true
	b.count++
	release := b.release
	if b.count == b.n {
		// Last rank in: reset for the next phase and release everyone.
		b.count = 0
		b.phase++
		for i := range b.arrived {
			b.arrived[i] = false
		}
		b.release = make(chan struct{})
		close(release)
		b.mu.Unlock()
		if traced {
			b.emitBarrierWait(rank, phase, t0)
		}
		return
	}
	b.mu.Unlock()

	if b.timeout <= 0 {
		<-release
		if traced {
			b.emitBarrierWait(rank, phase, t0)
		}
		return
	}
	timer := time.NewTimer(b.timeout)
	defer timer.Stop()
	select {
	case <-release:
		if traced {
			b.emitBarrierWait(rank, phase, t0)
		}
	case <-timer.C:
		b.mu.Lock()
		select {
		case <-release:
			// Completed in the instant the timer fired: not a deadlock.
			b.mu.Unlock()
			if traced {
				b.emitBarrierWait(rank, phase, t0)
			}
			return
		default:
		}
		var waiting, missing []int
		for r, ok := range b.arrived {
			if ok {
				waiting = append(waiting, r)
			} else {
				missing = append(missing, r)
			}
		}
		b.mu.Unlock()
		if traced {
			trace.Emit(trace.Event{
				TS:     trace.Now(),
				Ph:     trace.PhaseInstant,
				TID:    rank,
				Cat:    trace.CatMPI,
				Name:   trace.NameWatchdog,
				Region: b.region,
				Args:   [3]trace.Arg{{Key: trace.ArgPhase, Val: phase}},
			})
		}
		panic(fmt.Sprintf(
			"mpi: barrier deadlock after %v: waiting rank(s) %v, missing rank(s) %v never arrived",
			b.timeout, waiting, missing))
	}
}

// emitBarrierWait records one rank's barrier wait as a span in the
// barrier instance's region, with the phase it waited in as ArgPhase,
// so a traced wait builds no string.
func (b *barrier) emitBarrierWait(rank int, phase int64, t0 int64) {
	trace.Emit(trace.Event{
		TS:     t0,
		Dur:    trace.Now() - t0,
		Ph:     trace.PhaseSpan,
		TID:    rank,
		Cat:    trace.CatMPI,
		Name:   trace.NameBarrierWait,
		Region: b.region,
		Args:   [3]trace.Arg{{Key: trace.ArgPhase, Val: phase}},
	})
}
