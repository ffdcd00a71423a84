// Package cache is a trace-driven cache-hierarchy simulator: set-
// associative LRU levels with configurable line size, capacity and
// associativity. It exists to validate, by direct simulation, two
// mechanisms the performance model uses analytically:
//
//   - the A64FX's 256-byte cache lines amplify the memory traffic of
//     strided sweeps (SP's "poor cache behaviour") by up to 4x relative
//     to a 64-byte-line machine, while costing nothing on contiguous
//     streams; and
//   - the "short" gather workload (indices permuted within 128-byte
//     windows) hits in cache and in paired requests, while the full
//     permutation misses — the Figure 1 short-gather story.
//
// The simulator counts accesses, hits, misses and the bytes moved from
// the next level, per level.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
}

// Stats accumulates per-level counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	BytesMoved int64 // line fills from the level below
}

// HitRate returns the fraction of accesses that hit.
//
//ookami:pure
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.Accesses)
}

// level is one set-associative LRU cache level. The tags of all sets
// share one array, Ways slots per set in LRU order (front = MRU); a slot
// holds line+1, so a zero slot is empty and the empty slots of a set are
// always at its back.
type level struct {
	cfg   Config
	sets  int
	tags  []uint64
	stats Stats
}

func newLevel(cfg Config) *level {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic("cache: invalid level config")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	return &level{cfg: cfg, sets: sets, tags: make([]uint64, sets*cfg.Ways)}
}

// access touches the line containing addr; returns true on hit.
func (l *level) access(addr uint64) bool {
	l.stats.Accesses++
	line := addr / uint64(l.cfg.LineBytes)
	set := int(line % uint64(l.sets))
	tags := l.tags[set*l.cfg.Ways : (set+1)*l.cfg.Ways]
	key := line + 1
	for i, t := range tags {
		if t == key {
			// Move to MRU.
			copy(tags[1:i+1], tags[:i])
			tags[0] = key
			return true
		}
		if t == 0 {
			break
		}
	}
	l.stats.Misses++
	l.stats.BytesMoved += int64(l.cfg.LineBytes)
	// Insert as MRU; the LRU slot (or an empty one) drops off the back.
	copy(tags[1:], tags)
	tags[0] = key
	return false
}

// Hierarchy is an inclusive multi-level cache.
type Hierarchy struct {
	levels []*level
}

// NewHierarchy builds a hierarchy from outermost-first configs
// (L1 first).
func NewHierarchy(cfgs ...Config) *Hierarchy {
	h := &Hierarchy{}
	for _, c := range cfgs {
		h.levels = append(h.levels, newLevel(c))
	}
	return h
}

// Access simulates a load/store of `size` bytes at addr: every line the
// access touches goes through the hierarchy, descending on miss.
func (h *Hierarchy) Access(addr uint64, size int) {
	if size <= 0 {
		size = 1
	}
	first := h.levels[0]
	lineB := uint64(first.cfg.LineBytes)
	for a := addr / lineB * lineB; a < addr+uint64(size); a += lineB {
		for _, l := range h.levels {
			if l.access(a) {
				break
			}
		}
	}
}

// Stats returns the counters of level i (0 = L1).
func (h *Hierarchy) Stats(i int) Stats { return h.levels[i].stats }

// MemoryBytes returns the traffic that reached memory (misses of the last
// level).
func (h *Hierarchy) MemoryBytes() int64 {
	return h.levels[len(h.levels)-1].stats.BytesMoved
}

// Reset clears contents and counters in place, so one hierarchy can
// replay many patterns without reallocating its tag arrays.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels {
		clear(l.tags)
		l.stats = Stats{}
	}
}

// String summarizes the hierarchy state.
func (h *Hierarchy) String() string {
	s := ""
	for _, l := range h.levels {
		s += fmt.Sprintf("%s: %.1f%% hit, %d accesses, %d bytes from below\n",
			l.cfg.Name, 100*l.stats.HitRate(), l.stats.Accesses, l.stats.BytesMoved)
	}
	return s
}

// A64FXHierarchy returns the A64FX core's view: 64 KiB 4-way L1 and an
// 8 MiB 16-way CMG-shared L2, both with 256-byte lines.
func A64FXHierarchy() *Hierarchy {
	return NewHierarchy(
		Config{Name: "L1", SizeBytes: 64 << 10, LineBytes: 256, Ways: 4},
		Config{Name: "L2", SizeBytes: 8 << 20, LineBytes: 256, Ways: 16},
	)
}

// SkylakeHierarchy returns a Skylake core's view: 32 KiB 8-way L1,
// 1 MiB 16-way L2, 64-byte lines (the shared L3 is omitted; the
// comparisons here are about line size).
func SkylakeHierarchy() *Hierarchy {
	return NewHierarchy(
		Config{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 16},
	)
}
