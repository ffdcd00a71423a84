package parexec

import (
	"container/list"
	"sync"
)

// Memo is a singleflight result cache: concurrent callers of the same key
// coalesce onto one execution, later callers get the cached value. Keys
// must capture the *entire* input tuple of the computation — the engine's
// typed helpers build them from (entry, toolchain name+version, loop,
// machine, sizes) so two queries share a slot only when the certified-pure
// function would return identical results.
//
// By default the cache is unbounded — the right mode for figure
// generation, where the working set is the full sweep and every entry is
// revisited. SetCapacity switches it to a bounded LRU for long-running
// servers, where the key space is adversarial (every distinct client
// query is a key) and the cache must not grow with uptime.
type Memo struct {
	mu           sync.Mutex
	m            map[string]*memoEntry
	hits, misses int

	// cap > 0 bounds the cache: once len(m) exceeds cap, the least
	// recently used *completed* entry is evicted. In-flight entries are
	// never evicted — their waiters hold the entry pointer and the
	// coalescing guarantee ("N concurrent identical queries, 1 compute")
	// must survive cache pressure — so the cache can transiently exceed
	// cap by the number of concurrent in-flight computations.
	cap       int
	order     *list.List // front = most recently used; values are *memoEntry
	evictions int
}

type memoEntry struct {
	key  string
	done chan struct{}
	val  any
	elem *list.Element // position in order; nil in unbounded mode
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

// SetCapacity bounds the cache to n entries with LRU eviction (n <= 0
// restores the unbounded default). It must be called before the memo is
// used; changing capacity on a live cache panics, because re-threading
// an LRU list under in-flight singleflight waiters is a complexity this
// package has no caller for.
func (m *Memo) SetCapacity(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.m) > 0 {
		panic("parexec: SetCapacity on a non-empty memo")
	}
	m.cap = n
	if n > 0 {
		m.order = list.New()
	} else {
		m.order = nil
	}
}

// Do returns the memoized value for key, computing it with fn on first
// use. If another goroutine is already computing key, Do waits for that
// result instead of duplicating the work. A panicking fn is removed from
// the cache (waiters see the zero value) and the panic is re-raised.
func (m *Memo) Do(key string, fn func() any) any {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[string]*memoEntry)
	}
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
	if m.order != nil {
		e.elem = m.order.PushFront(e)
	}
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

// evictLocked drops least-recently-used completed entries until the
// cache fits its capacity. Callers hold m.mu.
func (m *Memo) evictLocked() {
	if m.cap <= 0 || m.order == nil {
		return
	}
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

// removeLocked unlinks an entry from both the map and the LRU list (if
// present). Callers hold m.mu. Idempotent: a panic-cleanup racing an
// eviction must not corrupt the list.
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
// /metrics endpoint and capacity tuning.
type MemoMetrics struct {
	Hits      int
	Misses    int
	Evictions int
	Size      int // entries currently cached (including in-flight)
	Cap       int // configured capacity; 0 = unbounded
}

// Metrics snapshots the cache counters.
func (m *Memo) Metrics() MemoMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoMetrics{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Size:      len(m.m),
		Cap:       m.cap,
	}
}
