package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// chromeEventFields are the fields of one trace_event entry, each with a
// valid JSON value. A seed event holds all of them but one, which takes
// one of the seedShapes.
var chromeEventFields = []struct{ name, valid string }{
	{"name", `"work"`},
	{"cat", `"omp"`},
	{"ph", `"X"`},
	{"ts", `1.5`},
	{"dur", `2`},
	{"pid", `1`},
	{"tid", `0`},
	{"args", `{"region":"r","iters":4}`},
}

// chromeFileFields are the top-level fields of the object form. A seed
// file holds one valid event and all of them but one, which takes one of
// the seedShapes.
var chromeFileFields = []struct{ name, valid string }{
	{"traceEvents", "[" + seedObject(chromeEventFields, "", "") + "]"},
	{"displayTimeUnit", `"ns"`},
	{"otherData", `{"schema":1,"wallNs":1000,"dropped":0}`},
}

// seedShapes are the JSON shapes each field is seeded with; absent drops
// the field.
var seedShapes = []struct{ name, value string }{
	{"number", `7`},
	{"absent", ``},
	{"empty-string", `""`},
	{"array", `["x"]`},
	{"object", `{"a":1}`},
}

// readChromeSeedOutcome is what ReadChrome makes of each seed: "error",
// or the number of events it loads. A value of the wrong JSON type fails
// the whole file, in either form. An event whose phase is absent or
// empty is skipped, and a file without traceEvents holds no events.
var readChromeSeedOutcome = map[string]string{
	"name-number": "error", "name-absent": "1", "name-empty-string": "1", "name-array": "error", "name-object": "error",
	"cat-number": "error", "cat-absent": "1", "cat-empty-string": "1", "cat-array": "error", "cat-object": "error",
	"ph-number": "error", "ph-absent": "0", "ph-empty-string": "0", "ph-array": "error", "ph-object": "error",
	"ts-number": "1", "ts-absent": "1", "ts-empty-string": "error", "ts-array": "error", "ts-object": "error",
	"dur-number": "1", "dur-absent": "1", "dur-empty-string": "error", "dur-array": "error", "dur-object": "error",
	"pid-number": "1", "pid-absent": "1", "pid-empty-string": "error", "pid-array": "error", "pid-object": "error",
	"tid-number": "1", "tid-absent": "1", "tid-empty-string": "error", "tid-array": "error", "tid-object": "error",
	"args-number": "error", "args-absent": "1", "args-empty-string": "error", "args-array": "error", "args-object": "1",
	"traceEvents-number": "error", "traceEvents-absent": "0", "traceEvents-empty-string": "error", "traceEvents-array": "error", "traceEvents-object": "error",
	"displayTimeUnit-number": "error", "displayTimeUnit-absent": "1", "displayTimeUnit-empty-string": "1", "displayTimeUnit-array": "error", "displayTimeUnit-object": "error",
	"otherData-number": "error", "otherData-absent": "1", "otherData-empty-string": "error", "otherData-array": "error", "otherData-object": "1",
}

// seedObject is a JSON object of fields with field set to value (dropped
// when value is empty) and every other field valid.
func seedObject(fields []struct{ name, valid string }, field, value string) string {
	var parts []string
	for _, f := range fields {
		v := f.valid
		if f.name == field {
			v = value
		}
		if v != "" {
			parts = append(parts, strconv.Quote(f.name)+":"+v)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// readChromeSeeds returns every seed by corpus name: each event field in
// the object form ("obj-") and the bare-array form ("arr-"), and each
// top-level field of the object form ("file-"), in every shape.
func readChromeSeeds() map[string]string {
	seeds := map[string]string{}
	for _, sh := range seedShapes {
		for _, f := range chromeEventFields {
			ev := seedObject(chromeEventFields, f.name, sh.value)
			seeds["obj-"+f.name+"-"+sh.name] = `{"traceEvents":[` + ev + `],"displayTimeUnit":"ns"}`
			seeds["arr-"+f.name+"-"+sh.name] = "[" + ev + "]"
		}
		for _, f := range chromeFileFields {
			seeds["file-"+f.name+"-"+sh.name] = seedObject(chromeFileFields, f.name, sh.value)
		}
	}
	return seeds
}

// checkReadChrome enforces the reader's contract on one input: it loads
// a trace or returns an error, never both and never a panic; a loaded
// trace renders its summary, and writing it back and reading that again
// keeps its events and counters.
func checkReadChrome(t *testing.T, data []byte) string {
	t.Helper()
	tr, err := ReadChrome(bytes.NewReader(data))
	if err != nil {
		if tr != nil {
			t.Fatalf("%q: error %v with a trace", data, err)
		}
		return "error"
	}
	if tr == nil {
		t.Fatalf("%q: no trace and no error", data)
	}
	if err := tr.WriteSummary(io.Discard); err != nil {
		t.Fatalf("%q: summary: %v", data, err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("%q: write back: %v", data, err)
	}
	back, err := ReadChrome(&buf)
	if err != nil {
		t.Fatalf("%q: reading the written trace back: %v", data, err)
	}
	if len(back.Events) != len(tr.Events) || len(back.Counters) != len(tr.Counters) {
		t.Fatalf("%q: round trip kept %d events and %d counters of %d and %d",
			data, len(back.Events), len(back.Counters), len(tr.Events), len(tr.Counters))
	}
	return strconv.Itoa(len(tr.Events) + len(tr.Counters))
}

// readCorpus returns the single []byte or string value of one committed
// corpus file of target.
func readCorpus(t *testing.T, target, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s/%s: not a one-value corpus file: %q", target, name, raw)
	}
	v := strings.TrimSuffix(lines[1], ")")
	v, ok := strings.CutPrefix(v, "[]byte(")
	if !ok {
		v, ok = strings.CutPrefix(v, "string(")
	}
	if !ok {
		t.Fatalf("%s/%s: not a []byte or string value: %q", target, name, raw)
	}
	s, err := strconv.Unquote(v)
	if err != nil {
		t.Fatalf("%s/%s: %v", target, name, err)
	}
	return s
}

// TestReadChromeSeedOutcome pins the seed table: every seed of the
// committed FuzzReadChrome corpus holds the input readChromeSeeds builds
// for it, and ReadChrome makes of it what readChromeSeedOutcome says.
// Both forms of an event field share one expected outcome.
func TestReadChromeSeedOutcome(t *testing.T) {
	seeds := readChromeSeeds()
	if len(seeds) != 2*len(chromeEventFields)*len(seedShapes)+len(chromeFileFields)*len(seedShapes) {
		t.Fatalf("%d seeds, want one per form, field and shape", len(seeds))
	}
	for name, input := range seeds {
		if got := readCorpus(t, "FuzzReadChrome", name); got != input {
			t.Errorf("%s: corpus holds %q, want %q", name, got, input)
		}
		key := name[strings.IndexByte(name, '-')+1:]
		want, ok := readChromeSeedOutcome[key]
		if !ok {
			t.Fatalf("%s: no expected outcome", name)
		}
		if got := checkReadChrome(t, []byte(input)); got != want {
			t.Errorf("%s: %s read as %s, want %s", name, input, got, want)
		}
	}
}

// FuzzReadChrome feeds arbitrary bytes to the trace reader, which loads
// files from outside the process (cmd/ookami-trace summary and chrome).
// The seed corpus under testdata/fuzz/FuzzReadChrome holds one input per
// field per JSON shape, in the object and the bare-array form
// (TestReadChromeSeedOutcome), plus any input the fuzzer found.
func FuzzReadChrome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadChrome(t, data)
	})
}

// traceBufSeedOutcome is the ring capacity each shape of OOKAMI_TRACE_BUF
// selects: a positive integer is taken, anything else keeps the default.
var traceBufSeedOutcome = map[string]int{
	"number": 7, "absent": DefaultShardEvents, "empty-string": DefaultShardEvents,
	"array": DefaultShardEvents, "object": DefaultShardEvents,
}

// setEnv sets key to value for the test, or unsets it when absent.
func setEnv(t *testing.T, key, value string, absent bool) {
	t.Helper()
	t.Setenv(key, value)
	if absent {
		if err := os.Unsetenv(key); err != nil {
			t.Fatal(err)
		}
	}
}

// checkTraceBuf enforces the OOKAMI_TRACE_BUF contract on one value: the
// capacity is the value when it is a positive integer, else the default.
func checkTraceBuf(t *testing.T, value string, absent bool) int {
	t.Helper()
	if strings.IndexByte(value, 0) >= 0 {
		t.Skip("environment values cannot hold NUL")
	}
	setEnv(t, "OOKAMI_TRACE_BUF", value, absent)
	got := shardEvents()
	want := DefaultShardEvents
	if n, err := strconv.Atoi(value); err == nil && n > 0 && !absent {
		want = n
	}
	if got != want {
		t.Fatalf("OOKAMI_TRACE_BUF=%q (absent %v): capacity %d, want %d", value, absent, got, want)
	}
	return got
}

// TestTraceBufSeedOutcome pins the FuzzTraceBufEnv seed table: one value
// per JSON shape, each with the capacity it selects.
func TestTraceBufSeedOutcome(t *testing.T) {
	for _, sh := range seedShapes {
		want, ok := traceBufSeedOutcome[sh.name]
		if !ok {
			t.Fatalf("%s: no expected outcome", sh.name)
		}
		if got := readCorpus(t, "FuzzTraceBufEnv", sh.name); got != sh.value {
			t.Errorf("%s: corpus holds %q, want %q", sh.name, got, sh.value)
		}
		t.Run(sh.name, func(t *testing.T) {
			if got := checkTraceBuf(t, sh.value, sh.name == "absent"); got != want {
				t.Errorf("%s: capacity %d, want %d", sh.name, got, want)
			}
		})
	}
}

// FuzzTraceBufEnv sets OOKAMI_TRACE_BUF to arbitrary strings: the ring
// capacity is the value when it parses as a positive integer and the
// default otherwise, with no panic. The corpus under
// testdata/fuzz/FuzzTraceBufEnv holds one value per JSON shape
// (TestTraceBufSeedOutcome); the absent seed is the empty value, which
// the reader treats like an unset variable.
func FuzzTraceBufEnv(f *testing.F) {
	f.Fuzz(func(t *testing.T, value string) {
		checkTraceBuf(t, value, false)
	})
}
