package bench

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// The process-wide registry. workloads.go populates it from init;
// tests may add scratch workloads. Guarded by a mutex so a test
// registering concurrently with a reader is race-free.
var (
	regMu    sync.Mutex
	registry = map[string]Workload{}
)

// nameRE constrains workload names to lowercase "suite/kernel" form so
// result files and filters stay shell- and JSON-friendly.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_.-]*/[a-z0-9][a-z0-9_.-]*$`)

// Register adds a workload to the registry. It panics on a malformed
// name, a nil Setup, or a duplicate registration — all programming
// errors in a workload definition, best caught at init time.
func Register(w Workload) {
	if !nameRE.MatchString(w.Name) {
		panic(fmt.Sprintf("bench: invalid workload name %q (want suite/kernel)", w.Name))
	}
	if w.Setup == nil {
		panic(fmt.Sprintf("bench: workload %q has nil Setup", w.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate workload %q", w.Name))
	}
	registry[w.Name] = w
}

// Unregister removes a workload by name. It exists for tests that
// register scratch workloads; the return reports whether one was
// removed.
func Unregister(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	_, ok := registry[name]
	delete(registry, name)
	return ok
}

// All returns every registered workload sorted by name.
func All() []Workload {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Match returns the workloads whose names match the regular expression
// pattern, sorted by name. An empty pattern matches everything.
func Match(pattern string) ([]Workload, error) {
	if strings.TrimSpace(pattern) == "" {
		return All(), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("bench: bad filter %q: %w", pattern, err)
	}
	var out []Workload
	for _, w := range All() {
		if re.MatchString(w.Name) {
			out = append(out, w)
		}
	}
	return out, nil
}
