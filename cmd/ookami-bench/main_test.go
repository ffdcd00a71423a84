package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ookami/internal/bench"
	"ookami/internal/testutil"
)

// TestRegistryCoverage pins the acceptance floor: the registry must
// hold at least 12 workloads, spanning every suite, and exactly the
// names and Params of the committed baseline. compare only notes a
// baseline workload missing from the current run, so without this pin
// a dropped or re-parameterized workload would pass the gate silently.
func TestRegistryCoverage(t *testing.T) {
	all := bench.All()
	if len(all) < 12 {
		t.Fatalf("only %d workloads registered, want >= 12", len(all))
	}
	suites := map[string]bool{}
	for _, w := range all {
		suites[w.Name[:strings.Index(w.Name, "/")]] = true
	}
	for _, s := range []string{"loops", "vmath", "npb", "lulesh", "hpcc", "blas", "fft", "stencil"} {
		if !suites[s] {
			t.Errorf("no workloads registered for suite %q", s)
		}
	}

	base, err := bench.LoadReport(filepath.Join("..", "..", bench.DefaultBaselinePath))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{}
	for _, r := range base.Results {
		want[r.Name] = r.Params
	}
	for _, w := range all {
		p, ok := want[w.Name]
		if !ok {
			t.Errorf("%s is registered but not in the baseline", w.Name)
		} else if !reflect.DeepEqual(w.Params, p) {
			t.Errorf("%s params = %v, baseline has %v", w.Name, w.Params, p)
		}
		delete(want, w.Name)
	}
	for name := range want {
		t.Errorf("%s is in the baseline but not registered", name)
	}
}

func TestListNamesWorkloads(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"list"}, &out, &errOut); code != 0 {
		t.Fatalf("list exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"loops/simple", "vmath/exp-horner", "npb/ep-s", "blas/hpl-lu"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %s", want)
		}
	}
}

func TestUsageAndBadSubcommand(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	for _, sub := range []string{"frobnicate", "history", "trend"} {
		errOut.Reset()
		if code := run([]string{sub}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "unknown subcommand") {
			t.Errorf("%s: exit = %d, stderr %q; want 2 and \"unknown subcommand\"", sub, code, errOut.String())
		}
	}
	if code := run([]string{"run", "-history", "x"}, &out, &errOut); code != 2 {
		t.Errorf("run -history exit = %d, want 2", code)
	}
	if code := run([]string{"run", "-filter", "["}, &out, &errOut); code != 2 {
		t.Errorf("bad filter exit = %d, want 2", code)
	}
	if code := run([]string{"run", "-filter", "^no/such-workload$"}, &out, &errOut); code != 2 {
		t.Errorf("empty match exit = %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"record"}, &out, &errOut); code != 2 {
		t.Errorf("record without -update-baseline exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-update-baseline") {
		t.Errorf("record refusal not explained: %s", errOut.String())
	}
}

// TestRunEmitsSchemaVersionedJSON runs two cheap real workloads and
// checks the stored report carries the schema, environment and
// per-workload median/CI/CoV the acceptance criteria require.
func TestRunEmitsSchemaVersionedJSON(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_ookami.json")
	var out, errOut bytes.Buffer
	code := run([]string{"run", "-filter", `^(loops/simple|vmath/exp-horner)$`,
		"-repeats", "3", "-cov", "10", "-out", path, "-json", "-q"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errOut.String())
	}
	// stdout JSON parses to the same schema-versioned report.
	var fromStdout bench.Report
	if err := json.Unmarshal(out.Bytes(), &fromStdout); err != nil {
		t.Fatalf("-json stdout not a report: %v", err)
	}
	rep, err := bench.LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != bench.SchemaVersion || fromStdout.Schema != bench.SchemaVersion {
		t.Errorf("schema = %d/%d", rep.Schema, fromStdout.Schema)
	}
	if rep.Env.GoVersion == "" || rep.CreatedAt == "" {
		t.Errorf("report missing env/timestamp: %+v", rep.Env)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Median <= 0 || math.IsNaN(r.CoV) || !(r.CILow <= r.Median && r.Median <= r.CIHigh) {
			t.Errorf("%s: incomplete stats %+v", r.Name, r)
		}
	}
}

// TestCompareFlagsInjectedSlowdown is the end-to-end acceptance check:
// record a baseline for a registered workload, make the same workload
// 2x slower, and require `compare` to exit nonzero naming it.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const name = "e2e/adjustable"
	var delay atomic.Int64
	delay.Store(int64(8 * time.Millisecond))
	bench.Register(bench.Workload{
		Name: name,
		Doc:  "test workload with injectable slowdown",
		Setup: func() (func(), error) {
			return func() { time.Sleep(time.Duration(delay.Load())) }, nil
		},
	})
	defer bench.Unregister(name)

	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.json")
	curPath := filepath.Join(dir, "current.json")
	runArgs := func(out string) []string {
		return []string{"run", "-filter", "^e2e/adjustable$", "-repeats", "3", "-out", out, "-q"}
	}
	var buf, errBuf bytes.Buffer
	if code := run(runArgs(basePath), &buf, &errBuf); code != 0 {
		t.Fatalf("baseline run exited %d: %s", code, errBuf.String())
	}

	// Same speed: compare must pass.
	if code := run(runArgs(curPath), &buf, &errBuf); code != 0 {
		t.Fatalf("steady run exited %d: %s", code, errBuf.String())
	}
	buf.Reset()
	if code := run([]string{"compare", "-baseline", basePath, "-current", curPath}, &buf, &errBuf); code != 0 {
		t.Fatalf("steady compare exited %d:\n%s%s", code, buf.String(), errBuf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("steady compare output:\n%s", buf.String())
	}

	// Inject the 2x slowdown and re-measure.
	delay.Store(int64(16 * time.Millisecond))
	if code := run(runArgs(curPath), &buf, &errBuf); code != 0 {
		t.Fatalf("slowed run exited %d: %s", code, errBuf.String())
	}
	buf.Reset()
	code := run([]string{"compare", "-baseline", basePath, "-current", curPath}, &buf, &errBuf)
	if code == 0 {
		t.Fatalf("compare did not fail on a 2x slowdown:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION: e2e/adjustable") {
		t.Errorf("regression not named:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Errorf("delta table missing verdict:\n%s", buf.String())
	}
}

// TestCompareRejectsWrongSchema ensures a stale result file fails
// loudly instead of comparing garbage.
func TestCompareRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, `{"schema": 99}`); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"compare", "-baseline", bad, "-current", bad}, &out, &errOut); code != 2 {
		t.Errorf("wrong-schema compare exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "schema version 99") {
		t.Errorf("schema error not surfaced: %s", errOut.String())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
