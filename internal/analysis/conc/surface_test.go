package conc

import (
	"path/filepath"
	"strings"
	"testing"

	"ookami/internal/analysis"
)

// concurrentPkg is a small runtime-shaped package for surface tests.
const concurrentPkg = `package rt

import "sync"

type pool struct {
	mu   sync.Mutex
	jobs chan func()
}

func newPool(n int) *pool {
	p := &pool{jobs: make(chan func(), n)}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			for j := range p.jobs {
				j()
			}
		}()
	}
	return p
}

func (p *pool) incr() {
	p.mu.Lock()
	defer p.mu.Unlock()
}
`

func surfaceModule() map[string]string {
	return map[string]string{
		"go.mod":                 "module tempmod\n\ngo 1.22\n",
		"internal/rt/rt.go":      concurrentPkg,
		"internal/rt/rt_test.go": "package rt\n\nimport \"testing\"\n\nfunc TestNothing(t *testing.T) {\n\tgo func() {}() // test files are outside the surface\n}\n",
	}
}

func TestCollectSurfaceFindsGoLockChanSites(t *testing.T) {
	root := writeTree(t, surfaceModule())
	sites, err := CollectSurface(newLoader(t, root), []string{"internal/rt"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sites {
		got = append(got, s.String())
	}
	want := []string{
		"internal/rt/rt.go:11: [chan] newPool: make chan func() (buffered)",
		"internal/rt/rt.go:15: [go] newPool: go func literal",
		"internal/rt/rt.go:26: [lock] pool.incr: p.mu.Lock",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sites:\n got %v\nwant %v", got, want)
	}
}

func TestSurfaceBaselineRoundTripAndDiff(t *testing.T) {
	root := writeTree(t, surfaceModule())
	pkgs := []string{"internal/rt"}
	sites, err := CollectSurface(newLoader(t, root), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	base := BuildSurfaceBaseline(pkgs, sites)
	path := filepath.Join(root, "concsurface.json")
	if err := analysis.SaveJSON(path, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := analysis.LoadJSON[SurfaceBaseline](path)
	if err != nil {
		t.Fatal(err)
	}

	// Clean tree: no growth against its own baseline.
	growth, shrinkage := DiffSurface(loaded, sites)
	if len(growth) != 0 || len(shrinkage) != 0 {
		t.Fatalf("self-diff not empty: growth=%v shrinkage=%v", growth, shrinkage)
	}

	// Grow the surface: a new spawn site in a new function must trip
	// the firewall and name the site.
	grownRoot := writeTree(t, surfaceModule())
	grown := surfaceModule()["internal/rt/rt.go"] + `
func fireAndForget(done chan struct{}) {
	go func() { close(done) }()
}
`
	writeFile(t, grownRoot, "internal/rt/rt.go", grown)
	grownSites, err := CollectSurface(newLoader(t, grownRoot), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	growth, _ = DiffSurface(loaded, grownSites)
	if len(growth) != 1 {
		t.Fatalf("growth = %v, want exactly 1 entry", growth)
	}
	if !strings.Contains(growth[0], "fireAndForget") || !strings.Contains(growth[0], "[go]") {
		t.Errorf("growth message does not name the new site: %s", growth[0])
	}

	// Shrink the surface: removing the lock site is an improvement,
	// not a failure.
	shrunkRoot := writeTree(t, surfaceModule())
	shrunk := strings.Replace(surfaceModule()["internal/rt/rt.go"],
		"\tp.mu.Lock()\n\tdefer p.mu.Unlock()\n", "", 1)
	writeFile(t, shrunkRoot, "internal/rt/rt.go", shrunk)
	shrunkSites, err := CollectSurface(newLoader(t, shrunkRoot), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	growth, shrinkage = DiffSurface(loaded, shrunkSites)
	if len(growth) != 0 {
		t.Errorf("shrinking reported growth: %v", growth)
	}
	if len(shrinkage) != 1 || !strings.Contains(shrinkage[0], "p.mu.Lock") {
		t.Errorf("shrinkage = %v, want one entry naming p.mu.Lock", shrinkage)
	}
}
