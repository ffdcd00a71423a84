package main

import (
	"math/rand"

	"ookami/internal/explain"
	"ookami/internal/npb"
	"ookami/internal/toolchain"
)

// The served request space: every toolchain × every kernel the API
// knows (the 11 loops of Figures 1-2 and the 6 NPB applications) × a
// thread ladder, on each toolchain's default machine — 255 points.
var hotThreads = []int{1, 12, 48}

// hotZipfS skews the serve-hot mix: a few points take most requests.
const hotZipfS = 1.1

// hotSeqLen is the length of the pre-drawn serve-hot request sequence;
// clients cycle through it.
const hotSeqLen = 1 << 16

// kernelNames lists the served kernels, loops first.
func kernelNames() []string {
	var out []string
	for _, l := range explain.AllLoops {
		out = append(out, l.String())
	}
	return append(out, npb.SuiteNames()...)
}

// hotSpace enumerates the 255-point request space.
func hotSpace() []explain.Request {
	var reqs []explain.Request
	for _, tc := range toolchain.All {
		for _, name := range kernelNames() {
			for _, th := range hotThreads {
				reqs = append(reqs, explain.Request{Kernel: name, Toolchain: tc.Name, Threads: th})
			}
		}
	}
	return reqs
}

// A served request's part is its (kernel, toolchain) pair: the model's
// work for a query depends on both, and hardly on the thread count.
func partOf(req explain.Request) int {
	for k, name := range kernelNames() {
		if name != req.Kernel {
			continue
		}
		for t, tc := range toolchain.All {
			if tc.Name == req.Toolchain {
				return k*len(toolchain.All) + t
			}
		}
	}
	panic("perfbench: request outside the served space: " + req.Kernel + "/" + req.Toolchain)
}

// partNames names the parts by index, "exp/GNU".
func partNames() []string {
	var out []string
	for _, name := range kernelNames() {
		for _, tc := range toolchain.All {
			out = append(out, name+"/"+tc.Name)
		}
	}
	return out
}

// hotSequence draws n point indices: Zipf-distributed ranks over a
// seeded permutation of the space, so the seed picks which points are
// hot as well as the order. The space has fewer than 1<<16 points.
func hotSequence(seed int64, points, n int) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(points)
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(points-1))
	seq := make([]uint16, n)
	for i := range seq {
		seq[i] = uint16(perm[z.Uint64()])
	}
	return seq
}

// seededOrder is the fixed call order of a run's n parts.
func seededOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
