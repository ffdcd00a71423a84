package figures

import (
	"fmt"

	"ookami/internal/cache"
	"ookami/internal/stats"
)

// CacheLineAblation validates, by trace-driven cache simulation, the
// strided-traffic amplification the node model charges to the A64FX's
// 256-byte lines: the same logical access pattern is replayed through the
// A64FX and Skylake hierarchies and the memory traffic is compared.
func CacheLineAblation() *stats.Table {
	t := stats.NewTable("Ablation: memory traffic by access pattern (trace-driven cache simulation)",
		"pattern", "A64FX bytes", "Skylake bytes", "amplification")
	const n = 1 << 14
	patterns := []struct {
		name string
		run  func(h *cache.Hierarchy)
	}{
		{"contiguous stream", func(h *cache.Hierarchy) { cache.StreamSweep(h, 0, n) }},
		{"stride 8 doubles", func(h *cache.Hierarchy) { cache.StridedSweep(h, 0, n, 8) }},
		{"stride 16 doubles", func(h *cache.Hierarchy) { cache.StridedSweep(h, 0, n, 16) }},
		{"stride 64 doubles", func(h *cache.Hierarchy) { cache.StridedSweep(h, 0, n, 64) }},
		{"plane stride (SP z-solve)", func(h *cache.Hierarchy) { cache.StridedSweep(h, 0, 4096, 1<<14) }},
	}
	a64 := cache.A64FXHierarchy()
	skx := cache.SkylakeHierarchy()
	for _, p := range patterns {
		a64.Reset()
		skx.Reset()
		p.run(a64)
		p.run(skx)
		amp := float64(a64.MemoryBytes()) / float64(skx.MemoryBytes())
		t.AddRow(p.name,
			fmt.Sprintf("%d", a64.MemoryBytes()),
			fmt.Sprintf("%d", skx.MemoryBytes()),
			stats.Format3(amp)+"x")
	}
	return t
}
