package analysis

// What the three firewalls (compilerdiag, concsurface, parsafe) share:
// the JSON load/save of their committed baselines, and the counted
// (file, func, kind, detail) tally that compilerdiag and concsurface
// diff against.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// LoadJSON reads a baseline file.
func LoadJSON[T any](path string) (T, error) {
	var base T
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	return base, nil
}

// SaveJSON writes a baseline file with stable formatting, creating its
// directory if needed.
func SaveJSON(path string, base any) error {
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TallyKey is the churn-stable identity of a counted baseline entry.
// Line and column churn under unrelated edits is expected, so the
// counted baselines key on (file, func, kind, detail) with a count
// rather than on positions.
type TallyKey struct {
	File, Func, Kind, Detail string
}

// Tally counts keys and returns the distinct ones in (file, func, kind,
// detail) order.
func Tally(keys []TallyKey) ([]TallyKey, map[TallyKey]int) {
	counts := map[TallyKey]int{}
	for _, k := range keys {
		counts[k]++
	}
	sorted := slices.SortedFunc(maps.Keys(counts), func(a, b TallyKey) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Func, b.Func),
			cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Detail, b.Detail))
	})
	return sorted, counts
}

// TallyDelta is one key whose count differs from the accepted one.
type TallyDelta struct {
	Key           TallyKey
	Now, Accepted int
	First         int // index of the key's first observation (growth only)
}

// DiffTally compares observed keys against accepted counts. Growth (a
// count above the accepted one, covering both brand-new keys and extra
// copies of a known one) is what fails a firewall; shrinkage is an
// improvement the baseline can be re-tightened to.
func DiffTally(accepted map[TallyKey]int, observed []TallyKey) (growth, shrinkage []TallyDelta) {
	counts, first := map[TallyKey]int{}, map[TallyKey]int{}
	for i, k := range observed {
		if counts[k] == 0 {
			first[k] = i
		}
		counts[k]++
	}
	for k, n := range counts {
		if n > accepted[k] {
			growth = append(growth, TallyDelta{Key: k, Now: n, Accepted: accepted[k], First: first[k]})
		}
	}
	for k, n := range accepted {
		if counts[k] < n {
			shrinkage = append(shrinkage, TallyDelta{Key: k, Now: counts[k], Accepted: n})
		}
	}
	return growth, shrinkage
}
