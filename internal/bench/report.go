package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// SchemaVersion is the version of the JSON result format. Readers
// reject files written under any other version; bump it when a field
// changes meaning, and re-record baselines in the same change.
const SchemaVersion = 1

// DefaultReportPath is where `ookami-bench run` writes its report.
const DefaultReportPath = "BENCH_ookami.json"

// DefaultBaselinePath is the committed baseline the comparator diffs
// against, relative to the module root.
const DefaultBaselinePath = "internal/bench/baseline/BENCH_ookami.json"

// Env captures the execution environment a report was produced under.
// A baseline recorded under a different environment is still
// comparable, but the comparator surfaces the mismatch so a "regression"
// caused by a core-count change is attributable.
type Env struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Result is one workload's recorded outcome. Timing fields are seconds
// per iteration; statistics are computed over Samples.
type Result struct {
	Name   string            `json:"name"`
	Params map[string]string `json:"params,omitempty"`

	Repeats  int       `json:"repeats"`
	Warmup   int       `json:"warmup"`
	Attempts int       `json:"attempts"` // sample-set attempts incl. CoV-gate re-runs
	Samples  []float64 `json:"samples,omitempty"`

	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	CoV    float64 `json:"cov"`
	CILow  float64 `json:"ciLow"` // 95% percentile-bootstrap CI of the median
	CIHigh float64 `json:"ciHigh"`

	// Error and ErrKind record a typed failure ("setup", "panic",
	// "timeout", "noisy", "invalid-sample"); on "noisy" the statistics
	// above are still populated from the last sample set, on
	// "invalid-sample" only the raw Samples are (derived statistics
	// over a degenerate set would be NaN, which JSON cannot store).
	Error   string  `json:"error,omitempty"`
	ErrKind ErrKind `json:"errKind,omitempty"`
}

// Failed reports whether the result carries a hard failure — any typed
// error except the noisy flag, which keeps (suspect) statistics.
func (r *Result) Failed() bool {
	return r.ErrKind != "" && r.ErrKind != ErrNoisy
}

// Report is the versioned top-level result document.
type Report struct {
	Schema    int      `json:"schema"`
	CreatedAt string   `json:"createdAt"` // RFC 3339
	Env       Env      `json:"env"`
	Results   []Result `json:"results"`
}

// Result returns the named result, or nil.
func (r *Report) Result(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// SchemaError reports a report file written under a different schema
// version.
type SchemaError struct {
	Path string
	Got  int
}

// Error implements error.
func (e *SchemaError) Error() string {
	return fmt.Sprintf("bench: %s: schema version %d, this tool reads version %d", e.Path, e.Got, SchemaVersion)
}

// WriteFile writes the report as indented JSON. The write is atomic
// (temp file + rename in the target's directory): report files double
// as committed baselines, and an in-place write
// interrupted mid-stream would corrupt the very record the comparator
// trusts. After WriteFile returns, path holds either the old content
// or the new — never a truncated mix.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode %s: %w", path, err)
	}
	return atomicWriteFile(path, append(data, '\n'))
}

// atomicWriteFile replaces path with data via a temp file in the same
// directory (rename is only atomic within one filesystem). Every
// report and baseline write goes through here.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		// CreateTemp opens 0600; match the permissions a plain write
		// would have produced before handing the file its final name.
		werr = os.Chmod(tmp, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("bench: write %s: %w", path, werr)
	}
	return nil
}

// LoadReport reads and validates a report file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, &SchemaError{Path: path, Got: r.Schema}
	}
	return &r, nil
}

// newReport stamps an empty report with the schema, clock and
// environment.
func newReport() *Report {
	return &Report{
		Schema:    SchemaVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Env:       CaptureEnv(),
	}
}
