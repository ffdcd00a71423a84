package cache

import (
	"math/rand"
	"strings"
	"testing"
)

func tiny() *Hierarchy {
	return NewHierarchy(Config{Name: "L1", SizeBytes: 1024, LineBytes: 64, Ways: 2})
}

func TestBasicHitMiss(t *testing.T) {
	h := tiny()
	h.Access(0, 8) // miss: fills line 0
	h.Access(8, 8) // hit: same line
	h.Access(64, 8)
	s := h.Stats(0)
	if s.Accesses != 3 || s.Misses != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesMoved != 128 {
		t.Errorf("bytes %d", s.BytesMoved)
	}
	if s.HitRate() < 0.33 || s.HitRate() > 0.34 {
		t.Errorf("hit rate %v", s.HitRate())
	}
}

func TestLRUReplacement(t *testing.T) {
	// 1024 B, 64 B lines, 2-way: 8 sets. Lines 0, 8, 16 map to set 0.
	h := tiny()
	h.Access(0, 1)     // set 0: [0]
	h.Access(8*64, 1)  // set 0: [8, 0]
	h.Access(0, 1)     // hit, set 0: [0, 8]
	h.Access(16*64, 1) // evicts 8; set 0: [16, 0]
	h.Access(0, 1)     // hit
	h.Access(8*64, 1)  // miss (was evicted)
	s := h.Stats(0)
	if s.Misses != 4 {
		t.Errorf("misses %d want 4 (0, 8, 16, 8-again)", s.Misses)
	}
}

func TestCrossLineAccessTouchesBothLines(t *testing.T) {
	h := tiny()
	h.Access(60, 8) // spans lines 0 and 1
	if s := h.Stats(0); s.Misses != 2 {
		t.Errorf("cross-line access: %d misses, want 2", s.Misses)
	}
}

func TestMultiLevelDescent(t *testing.T) {
	h := NewHierarchy(
		Config{Name: "L1", SizeBytes: 512, LineBytes: 64, Ways: 2},
		Config{Name: "L2", SizeBytes: 4096, LineBytes: 64, Ways: 4},
	)
	// Touch 16 lines (1 KiB): L1 (8 lines) thrashes, L2 holds them all.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 16; i++ {
			h.Access(uint64(i*64), 8)
		}
	}
	l1, l2 := h.Stats(0), h.Stats(1)
	if l1.Misses == 0 || l2.Misses != 16 {
		t.Errorf("l1 %+v l2 %+v", l1, l2)
	}
	// Second pass must hit entirely in L2.
	if l2.Accesses != l1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", l2.Accesses, l1.Misses)
	}
	if h.MemoryBytes() != 16*64 {
		t.Errorf("memory bytes %d", h.MemoryBytes())
	}
}

func TestResetClears(t *testing.T) {
	h := tiny()
	h.Access(0, 8)
	h.Reset()
	if h.Stats(0).Accesses != 0 {
		t.Error("reset failed")
	}
	h.Access(0, 8)
	if h.Stats(0).Misses != 1 {
		t.Error("contents survived reset")
	}
}

func TestStreamSweepNearPerfectLocality(t *testing.T) {
	// Contiguous stream: both line sizes move exactly n*8 bytes (every
	// byte of every fetched line is used).
	const n = 1 << 15
	a64 := A64FXHierarchy()
	skx := SkylakeHierarchy()
	StreamSweep(a64, 0, n)
	StreamSweep(skx, 0, n)
	if a64.MemoryBytes() != n*8 || skx.MemoryBytes() != n*8 {
		t.Errorf("stream traffic: a64 %d skx %d want %d", a64.MemoryBytes(), skx.MemoryBytes(), n*8)
	}
	// A64FX's hit rate is even better (32 elements/line).
	if a64.Stats(0).HitRate() < skx.Stats(0).HitRate() {
		t.Error("long lines should raise stream hit rate")
	}
}

func TestStridedSweepAmplifiedByLongLines(t *testing.T) {
	// Large-stride sweep (one double per plane, like SP's z-solve):
	// each access fetches a whole line of which 8 bytes are used.
	// A64FX moves 256 bytes per element, Skylake 64: exactly 4x.
	const n, stride = 4096, 1 << 14
	pattern := func(h *Hierarchy) { StridedSweep(h, 0, n, stride) }
	amp := TrafficAmplification(pattern, A64FXHierarchy(), SkylakeHierarchy())
	if amp != 4 {
		t.Errorf("strided amplification = %v, want exactly 4 (256B/64B)", amp)
	}
	// This is the simulation behind perfmodel's StridedBytes scaling.
}

func TestModerateStrideAmplification(t *testing.T) {
	// Stride of 16 doubles (128 B): Skylake uses 8/64 of each line,
	// A64FX 16/256... both waste, A64FX wastes 2x more.
	const n, stride = 8192, 16
	pattern := func(h *Hierarchy) { StridedSweep(h, 0, n, stride) }
	amp := TrafficAmplification(pattern, A64FXHierarchy(), SkylakeHierarchy())
	if amp < 1.9 || amp > 2.1 {
		t.Errorf("128B-stride amplification = %v, want ~2", amp)
	}
}

func TestGatherLocalityWindows(t *testing.T) {
	// The Figure 1 short-gather story in cache terms: a permutation
	// within 128-byte windows keeps every access inside a recently
	// fetched line; a full permutation over a large array misses
	// constantly.
	const n = 1 << 16 // 512 KiB of doubles: beyond L1, fits some of L2
	rng := rand.New(rand.NewSource(3))
	full := make([]int64, n)
	for i, v := range rng.Perm(n) {
		full[i] = int64(v)
	}
	short := make([]int64, n)
	for base := 0; base < n; base += 16 {
		for i, v := range rng.Perm(16) {
			short[base+i] = int64(base + v)
		}
	}
	a64 := A64FXHierarchy()
	GatherSweep(a64, 0, short)
	shortMiss := a64.Stats(0).Misses
	a64.Reset()
	GatherSweep(a64, 0, full)
	fullMiss := a64.Stats(0).Misses
	if float64(fullMiss) < 4*float64(shortMiss) {
		t.Errorf("full-permutation misses (%d) should dwarf windowed (%d)", fullMiss, shortMiss)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config should panic")
		}
	}()
	NewHierarchy(Config{Name: "bad", SizeBytes: 0, LineBytes: 64, Ways: 1})
}

func TestStringRender(t *testing.T) {
	h := A64FXHierarchy()
	h.Access(0, 8)
	if s := h.String(); !strings.Contains(s, "L1") || !strings.Contains(s, "L2") {
		t.Errorf("render: %q", s)
	}
}

func TestZeroSizeAccessCountsOnce(t *testing.T) {
	h := tiny()
	h.Access(100, 0)
	if h.Stats(0).Accesses != 1 {
		t.Errorf("accesses %d", h.Stats(0).Accesses)
	}
}

// refLevel is the textbook form of one level: a slice of tags per set,
// MRU first. It is the oracle for the flat tag array.
type refLevel struct {
	cfg  Config
	sets int
	tags [][]uint64
	st   Stats
}

func newRefLevel(cfg Config) *refLevel {
	sets := max(cfg.SizeBytes/cfg.LineBytes/cfg.Ways, 1)
	return &refLevel{cfg: cfg, sets: sets, tags: make([][]uint64, sets)}
}

func (l *refLevel) access(addr uint64) bool {
	l.st.Accesses++
	line := addr / uint64(l.cfg.LineBytes)
	set := int(line % uint64(l.sets))
	tags := l.tags[set]
	for i, t := range tags {
		if t == line {
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			return true
		}
	}
	l.st.Misses++
	l.st.BytesMoved += int64(l.cfg.LineBytes)
	if len(tags) < l.cfg.Ways {
		tags = append(tags, 0)
	}
	copy(tags[1:], tags)
	tags[0] = line
	l.tags[set] = tags
	return false
}

// TestFlatTagsMatchPerSetLRU replays random traces, line 0 included,
// through a reused hierarchy and through per-set LRU oracles: every
// level's counters must agree after every access, and a Reset
// hierarchy must behave as a fresh one.
func TestFlatTagsMatchPerSetLRU(t *testing.T) {
	cfgs := []Config{
		{Name: "L1", SizeBytes: 512, LineBytes: 64, Ways: 2},
		{Name: "L2", SizeBytes: 4096, LineBytes: 64, Ways: 4},
		{Name: "L3", SizeBytes: 8192, LineBytes: 64, Ways: 1},
	}
	h := NewHierarchy(cfgs...)
	rng := rand.New(rand.NewSource(11))
	for trace := 0; trace < 4; trace++ {
		h.Reset()
		ref := make([]*refLevel, len(cfgs))
		for i, c := range cfgs {
			ref[i] = newRefLevel(c)
		}
		for k := 0; k < 5000; k++ {
			addr := uint64(rng.Intn(1 << 15))
			h.Access(addr, 8)
			for a := addr / 64 * 64; a < addr+8; a += 64 {
				for _, l := range ref {
					if l.access(a) {
						break
					}
				}
			}
			for i, l := range ref {
				if got := h.Stats(i); got != l.st {
					t.Fatalf("trace %d access %d level %d: %+v, want %+v", trace, k, i, got, l.st)
				}
			}
		}
	}
}
