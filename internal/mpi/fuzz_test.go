package mpi

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// timeoutSeeds are the FuzzTimeoutFromEnv seeds: one OOKAMI_MPI_TIMEOUT
// value per JSON shape, plus a valid and a negative duration, each with
// the timeout it selects or "error" for a *TimeoutEnvError. A bare
// number has no unit and a quoted empty string is no duration, so both
// are rejected; an unset variable leaves the watchdog off.
var timeoutSeeds = []struct {
	name, value string
	want        string
}{
	{"number", `7`, "error"},
	{"absent", ``, "0s"},
	{"empty-string", `""`, "error"},
	{"array", `["30s"]`, "error"},
	{"object", `{"a":1}`, "error"},
	{"duration", `30s`, "30s"},
	{"negative", `-1s`, "error"},
}

// checkTimeoutEnv enforces the OOKAMI_MPI_TIMEOUT contract on one value:
// an empty value disables the watchdog; a non-negative duration is the
// timeout; anything else is a *TimeoutEnvError carrying the raw value,
// with the watchdog disabled. It never panics.
func checkTimeoutEnv(t *testing.T, value string, absent bool) string {
	t.Helper()
	if strings.IndexByte(value, 0) >= 0 {
		t.Skip("environment values cannot hold NUL")
	}
	t.Setenv("OOKAMI_MPI_TIMEOUT", value)
	if absent {
		if err := os.Unsetenv("OOKAMI_MPI_TIMEOUT"); err != nil {
			t.Fatal(err)
		}
		value = ""
	}
	d, err := TimeoutFromEnv()
	if err != nil {
		var te *TimeoutEnvError
		if !errors.As(err, &te) || te.Raw != value || d != 0 {
			t.Fatalf("OOKAMI_MPI_TIMEOUT=%q: (%v, %T %v), want (0, *TimeoutEnvError)", value, d, err, err)
		}
		return "error"
	}
	want := time.Duration(0)
	if value != "" {
		if want, err = time.ParseDuration(value); err != nil || want < 0 {
			t.Fatalf("OOKAMI_MPI_TIMEOUT=%q accepted as %v", value, d)
		}
	}
	if d != want {
		t.Fatalf("OOKAMI_MPI_TIMEOUT=%q: timeout %v, want %v", value, d, want)
	}
	return d.String()
}

// TestTimeoutSeedOutcome pins the seed table: every seed of the committed
// FuzzTimeoutFromEnv corpus holds its value and selects its outcome.
func TestTimeoutSeedOutcome(t *testing.T) {
	for _, s := range timeoutSeeds {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzTimeoutFromEnv", s.name))
		if err != nil {
			t.Fatal(err)
		}
		if want := "go test fuzz v1\nstring(" + strconv.Quote(s.value) + ")\n"; string(raw) != want {
			t.Errorf("%s: corpus holds %q, want %q", s.name, raw, want)
		}
		t.Run(s.name, func(t *testing.T) {
			if got := checkTimeoutEnv(t, s.value, s.name == "absent"); got != s.want {
				t.Errorf("OOKAMI_MPI_TIMEOUT=%q: %s, want %s", s.value, got, s.want)
			}
		})
	}
}

// FuzzTimeoutFromEnv sets OOKAMI_MPI_TIMEOUT to arbitrary strings and
// holds TimeoutFromEnv to checkTimeoutEnv's contract. The corpus under
// testdata/fuzz/FuzzTimeoutFromEnv holds the timeoutSeeds; the absent
// seed is the empty value, which the reader treats like an unset
// variable.
func FuzzTimeoutFromEnv(f *testing.F) {
	f.Fuzz(func(t *testing.T, value string) {
		checkTimeoutEnv(t, value, false)
	})
}
