package bench

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	rep := newReport()
	rep.Results = append(rep.Results, Result{
		Name: "t/a", Params: map[string]string{"n": "8"},
		Repeats: 3, Samples: []float64{1, 2, 3},
		Median: 2, Mean: 2, Min: 1, Max: 3, CoV: 0.5, CILow: 1, CIHigh: 3,
	})
	path := filepath.Join(t.TempDir(), "BENCH_ookami.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || len(got.Results) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	r := got.Result("t/a")
	if r == nil || r.Median != 2 || r.Params["n"] != "8" {
		t.Errorf("result corrupted: %+v", r)
	}
}

func TestLoadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99, "results": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadReport(path)
	var se *SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("want SchemaError, got %v", err)
	}
	if se.Got != 99 || !strings.Contains(se.Error(), "99") {
		t.Errorf("schema error = %v", se)
	}
}

func TestLoadReportRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("garbage parsed as a report")
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file loaded as a report")
	}
}

// histReport builds a tiny valid report with one workload at the given
// median and CoV.
func histReport(median, cov float64) *Report {
	rep := newReport()
	rep.Results = append(rep.Results, Result{
		Name: "t/hist", Repeats: 3,
		Median: median, Mean: median, Min: median, Max: median,
		CoV: cov, CILow: median * 0.99, CIHigh: median * 1.01,
	})
	return rep
}

// TestWriteFileReplacesAtomically pins the temp-file + rename contract:
// rewriting a report must produce a *new* file (a fresh inode) renamed
// over the old one, never an in-place truncate-and-write, and must not
// leave temp files behind.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_ookami.json")
	rep := histReport(1, 0.01)
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sys1, ok1 := st1.Sys().(*syscall.Stat_t)
	sys2, ok2 := st2.Sys().(*syscall.Stat_t)
	if ok1 && ok2 && sys1.Ino == sys2.Ino {
		t.Error("rewrite kept the same inode: report was written in place, not temp-file+renamed")
	}
	if _, err := LoadReport(path); err != nil {
		t.Errorf("rewritten report unreadable: %v", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		for _, de := range des {
			t.Logf("left behind: %s", de.Name())
		}
		t.Errorf("directory holds %d files after two writes, want 1 (no temp litter)", len(des))
	}
	// A failed write (unreachable directory) must not plant a partial
	// target file.
	bad := filepath.Join(dir, "no-such-subdir", "x.json")
	if err := rep.WriteFile(bad); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("failed write left a file: %v", err)
	}
}

// FuzzLoadReport feeds arbitrary bytes through the report loader, the
// package's one parser of outside files. A file must load as
// a schema-1 report or fail with a typed error, never panic; a loaded
// report must compare against itself and render without panicking,
// and a report compared with itself can neither regress nor improve.
// The seed corpus under testdata/fuzz/FuzzLoadReport holds the
// committed baseline, a wrong schema, truncated JSON and a report with
// duplicate workload names.
func FuzzLoadReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "BENCH_ookami.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := LoadReport(path)
		if err != nil {
			var (
				se  *SchemaError
				syn *json.SyntaxError
				typ *json.UnmarshalTypeError
			)
			switch {
			case rep != nil:
				t.Fatalf("LoadReport returned both a report and %v", err)
			case errors.As(err, &se):
				if se.Got == SchemaVersion {
					t.Fatalf("schema error for the supported version: %v", err)
				}
			case errors.As(err, &syn), errors.As(err, &typ):
			default:
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if rep.Schema != SchemaVersion {
			t.Fatalf("accepted schema %d", rep.Schema)
		}
		c := Compare(rep, rep, CompareOptions{})
		_ = c.Table().String()
		if len(c.Regressions()) != 0 || len(c.MissingInCurrent) != 0 || len(c.AddedInCurrent) != 0 {
			t.Fatalf("self-comparison is not clean: %+v", c)
		}
		for _, d := range c.Deltas {
			if d.Improved {
				t.Fatalf("%s improved against itself: %+v", d.Name, d)
			}
		}
	})
}
