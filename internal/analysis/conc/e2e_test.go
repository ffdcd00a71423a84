package conc

import (
	"fmt"
	"strings"
	"testing"

	"ookami/internal/analysis"
)

// TestConcEndToEndInjectedRegressions materializes a module on disk
// with one deliberately injected concurrency bug per analyzer, runs the
// full vet pipeline over it exactly as the CLI does, and asserts each
// analyzer fires at its injection site — and nowhere else. This is the
// proof that a future regression of any of these shapes in the real
// runtime packages would be caught by `make vet`.
func TestConcEndToEndInjectedRegressions(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tempmod\n\ngo 1.22\n",

		// lockorder: the mpi/omp shape — two mutexes taken in opposite
		// orders by the send and receive halves.
		"internal/link/link.go": `package link

import "sync"

type Link struct {
	sendMu, recvMu sync.Mutex
}

func (l *Link) Send() {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
}

func (l *Link) Recv() {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
}
`,

		// goleak: a fire-and-forget sampler goroutine with no join edge.
		"internal/sampler/sampler.go": `package sampler

var samples []int

func Start() {
	go func() {
		samples = append(samples, 1)
	}()
}
`,

		// atomicmix: plain counter read racing an atomic.AddInt64.
		"internal/counter/counter.go": `package counter

import "sync/atomic"

var ops int64

func Record() {
	atomic.AddInt64(&ops, 1)
}

func Snapshot() int64 {
	return ops
}
`,

		// wgmisuse: Add issued inside the spawned goroutine.
		"internal/fanout/fanout.go": `package fanout

import "sync"

func Run(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func() {
			wg.Add(1)
			defer wg.Done()
		}()
	}
	wg.Wait()
}
`,

		// locksync: a value receiver copying the mutex.
		"internal/store/store.go": `package store

import "sync"

type Store struct {
	mu sync.Mutex
	n  int
}

func (s Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`,
	})

	diags, err := analysis.Vet(newLoader(t, root), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("vet: %v", err)
	}

	wantAt := map[string]string{
		"lockorder": "internal/link/link.go:19",
		"goleak":    "internal/sampler/sampler.go:6",
		"atomicmix": "internal/counter/counter.go:12",
		"wgmisuse":  "internal/fanout/fanout.go:9",
		"locksync":  "internal/store/store.go:10",
	}
	seen := map[string][]string{}
	for _, d := range diags {
		seen[d.Analyzer] = append(seen[d.Analyzer],
			fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line))
	}
	for analyzer, site := range wantAt {
		hit := false
		for _, at := range seen[analyzer] {
			if strings.HasSuffix(at, site) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s did not fire at %s; fired at %v", analyzer, site, seen[analyzer])
		}
	}
	for analyzer := range seen {
		if _, injected := wantAt[analyzer]; !injected {
			t.Errorf("unexpected analyzer %s fired: %v", analyzer, seen[analyzer])
		}
	}
}
