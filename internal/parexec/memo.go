package parexec

import (
	"container/list"
	"sync"
)

// memoCap is the number of entries a Memo keeps. It covers both users
// with room to spare: a cold figure pass memoizes 65 entries, and the
// server's key space (every distinct client query) is adversarial, so the
// cache must not grow with uptime.
const memoCap = 4096

// Memo is a singleflight LRU result cache: concurrent callers of the same
// key coalesce onto one execution, later callers get the cached value,
// and once the cache holds more than its capacity the least recently
// used completed entry is evicted. Keys must capture the *entire* input
// tuple of the computation — the engine's typed helpers build them from
// (entry, toolchain name+version, loop, machine, sizes) so two queries
// share a slot only when the certified-pure function would return
// identical results. The zero value is an empty cache.
type Memo struct {
	mu           sync.Mutex
	m            map[string]*memoEntry
	hits, misses int

	// cap bounds the cache: memoCap, set on first use unless a test
	// shrank it beforehand. In-flight entries are never evicted — their
	// waiters hold the entry pointer and the coalescing guarantee ("N
	// concurrent identical queries, 1 compute") must survive cache
	// pressure — so the cache can transiently exceed cap by the number
	// of concurrent in-flight computations.
	cap       int
	order     list.List // front = most recently used; values are *memoEntry
	evictions int
}

type memoEntry struct {
	key  string
	done chan struct{}
	val  any
	elem *list.Element // position in order; nil once removed
}

// completed reports whether the entry's computation has finished (its
// done channel is closed). Only completed entries are eviction
// candidates.
func (e *memoEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Do returns the memoized value for key, computing it with fn on first
// use. If another goroutine is already computing key, Do waits for that
// result instead of duplicating the work. A panicking fn is removed from
// the cache (waiters see the zero value) and the panic is re-raised.
func (m *Memo) Do(key string, fn func() any) any {
	m.mu.Lock()
	m.initLocked()
	if e, ok := m.m[key]; ok {
		m.hits++
		if e.elem != nil {
			m.order.MoveToFront(e.elem)
		}
		m.mu.Unlock()
		<-e.done
		return e.val
	}
	e := &memoEntry{key: key, done: make(chan struct{})}
	m.m[key] = e
	e.elem = m.order.PushFront(e)
	m.misses++
	m.evictLocked()
	m.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			m.mu.Lock()
			m.removeLocked(e)
			m.mu.Unlock()
			close(e.done)
			panic(r)
		}
	}()
	e.val = fn()
	close(e.done)
	return e.val
}

// initLocked readies an unused memo. Callers hold m.mu.
func (m *Memo) initLocked() {
	if m.m == nil {
		m.m = make(map[string]*memoEntry)
	}
	if m.cap == 0 {
		m.cap = memoCap
	}
}

// evictLocked drops least-recently-used completed entries until the
// cache fits its capacity. Callers hold m.mu.
func (m *Memo) evictLocked() {
	for el := m.order.Back(); el != nil && len(m.m) > m.cap; {
		prev := el.Prev()
		e := el.Value.(*memoEntry)
		if e.completed() {
			m.removeLocked(e)
			m.evictions++
		}
		el = prev
	}
}

// removeLocked unlinks an entry from both the map and the LRU list.
// Callers hold m.mu. Idempotent: a panic-cleanup racing an eviction must
// not corrupt the list.
func (m *Memo) removeLocked(e *memoEntry) {
	if cur, ok := m.m[e.key]; ok && cur == e {
		delete(m.m, e.key)
	}
	if e.elem != nil {
		m.order.Remove(e.elem)
		e.elem = nil
	}
}

// MemoMetrics is the full counter set of a memo cache, for the server's
// /metrics endpoint and the benchmark's per-operation counters.
type MemoMetrics struct {
	Hits      int
	Misses    int
	Evictions int
	Size      int // entries currently cached (including in-flight)
	Cap       int // capacity
}

// Metrics snapshots the cache counters.
func (m *Memo) Metrics() MemoMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.initLocked()
	return MemoMetrics{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Size:      len(m.m),
		Cap:       m.cap,
	}
}
