package conc

import (
	"testing"

	"ookami/internal/analysis"
)

func locksyncOnly() []analysis.Analyzer { return []analysis.Analyzer{LockSync{}} }

func TestLockSyncPointersAndConstructorsAreClean(t *testing.T) {
	runFixture(t, "ookami/internal/fix", locksyncOnly(), map[string]string{
		"a.go": `package fix

import "sync"

type Guarded struct {
	mu sync.Mutex
	n  int
}

func (g *Guarded) Get() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func fresh() *Guarded {
	return &Guarded{n: 1}
}

func pointers(gs []*Guarded) int {
	total := 0
	for _, g := range gs {
		total += g.Get()
	}
	return total
}
`,
	})
}

func TestLockSyncLockWithoutUnlockOnExitPath(t *testing.T) {
	runFixture(t, "ookami/internal/fix", locksyncOnly(), map[string]string{
		"a.go": `package fix

import "sync"

type S struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	good bool
}

func (s *S) leaky(cond bool) {
	s.mu.Lock() // want locksync
	if cond {
		return
	}
	s.mu.Unlock()
}

func (s *S) wrongPair() int {
	s.rw.RLock() // want locksync
	n := 1
	s.rw.Unlock() // Unlock does not release RLock
	return n
}

func (s *S) balanced(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

func (s *S) deferred() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.good
}

func (s *S) deferredInClosure() bool {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	return s.good
}

func (s *S) panics(cond bool) {
	s.mu.Lock()
	if cond {
		panic("invariant broken")
	}
	s.mu.Unlock()
}
`,
	})
}

func TestLockSyncDeferUnlockInsideLoop(t *testing.T) {
	runFixture(t, "ookami/internal/fix", locksyncOnly(), map[string]string{
		"a.go": `package fix

import "sync"

type shard struct {
	mu sync.Mutex
	n  int
}

func drain(shards []*shard) int {
	total := 0
	for _, s := range shards {
		s.mu.Lock()
		defer s.mu.Unlock() // want locksync
		total += s.n
	}
	return total
}

func drainFixed(shards []*shard) int {
	total := 0
	for _, s := range shards {
		s.mu.Lock()
		total += s.n
		s.mu.Unlock()
	}
	return total
}
`,
	})
}
