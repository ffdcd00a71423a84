package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ookami/internal/explain"
)

// predictFields are the request fields of POST /v1/predict, each with a
// valid JSON value. A seed body holds all of them but one, which takes
// one of the predictShapes.
var predictFields = []struct{ name, valid string }{
	{"kernel", `"exp"`},
	{"toolchain", `"Fujitsu"`},
	{"machine", `"Ookami"`},
	{"threads", `4`},
	{"elems", `4096`},
}

// predictShapes are the JSON shapes each field is seeded with; absent
// drops the field from the body.
var predictShapes = []struct{ name, value string }{
	{"number", `7`},
	{"absent", ``},
	{"empty-string", `""`},
	{"array", `["exp"]`},
	{"object", `{"a":1}`},
}

// predictSeedStatus is the status each (field, shape) seed must get. A
// value of the wrong JSON type fails to decode (400): a number is a
// valid count but not a name, and an empty string is not a count. A
// missing or empty name is an unknown kernel or toolchain (404) but the
// default machine (200).
var predictSeedStatus = map[string]int{
	"kernel-number": 400, "kernel-absent": 404, "kernel-empty-string": 404, "kernel-array": 400, "kernel-object": 400,
	"toolchain-number": 400, "toolchain-absent": 404, "toolchain-empty-string": 404, "toolchain-array": 400, "toolchain-object": 400,
	"machine-number": 400, "machine-absent": 200, "machine-empty-string": 200, "machine-array": 400, "machine-object": 400,
	"threads-number": 200, "threads-absent": 200, "threads-empty-string": 400, "threads-array": 400, "threads-object": 400,
	"elems-number": 200, "elems-absent": 200, "elems-empty-string": 400, "elems-array": 400, "elems-object": 400,
}

// seedBody is the predict body with field set to value (dropped when
// value is empty) and every other field valid.
func seedBody(field, value string) string {
	var parts []string
	for _, f := range predictFields {
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

// fuzzMaxBody bounds predict bodies on the fuzzed server, small enough
// that the fuzzer reaches the 413 path.
const fuzzMaxBody = 512

// checkPredict posts body to s and enforces the handler's contract: the
// status is 200, 400, 404 or 413; an error body is a JSON error object;
// a 200 body is exactly the marshaled explain.Predict answer for the
// request the body decodes to.
func checkPredict(t *testing.T, s *Server, body string) int {
	t.Helper()
	w := do(s, "POST", "/v1/predict", body, nil)
	switch w.Code {
	case 200:
	case 400, 404, 413:
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("body %q: status %d with error body %q", body, w.Code, w.Body)
		}
		return w.Code
	default:
		t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body)
	}
	var req explain.Request
	dec := json.NewDecoder(bytes.NewReader([]byte(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
	}
	p, err := explain.Predict(req)
	if err != nil {
		t.Fatalf("body %q answered 200 but Predict(%+v) fails: %v", body, req, err)
	}
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("body %q answered 200 but Predict(%+v) does not marshal: %v", body, req, err)
	}
	if w.Body.String() != string(want) {
		t.Fatalf("body %q: served bytes differ from the library call\n got: %s\nwant: %s", body, w.Body, want)
	}
	return w.Code
}

// readSeed returns the body of one committed FuzzPredict corpus file.
func readSeed(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzPredict", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value corpus file: %q", name, raw)
	}
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return body
}

// TestPredictSeedStatus pins the seed table: every (field, shape) entry
// of the committed corpus holds the body seedBody builds for it and gets
// its expected status.
func TestPredictSeedStatus(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: fuzzMaxBody})
	for _, f := range predictFields {
		for _, sh := range predictShapes {
			name := f.name + "-" + sh.name
			want, ok := predictSeedStatus[name]
			if !ok {
				t.Fatalf("%s: no expected status", name)
			}
			body := seedBody(f.name, sh.value)
			if got := readSeed(t, name); got != body {
				t.Errorf("%s: corpus holds %q, want %q", name, got, body)
			}
			if got := checkPredict(t, s, body); got != want {
				t.Errorf("%s: body %s got status %d, want %d", name, body, got, want)
			}
		}
	}
}

// FuzzPredict posts arbitrary bodies to /v1/predict. Any body must get
// 200, 400, 404 or 413 — never a 5xx or a panic — and every 200 body
// must be byte-identical to the direct explain.Predict answer. The seed
// corpus under testdata/fuzz/FuzzPredict holds one body per request
// field per JSON shape (TestPredictSeedStatus) plus any input the
// fuzzer found. One server serves every input, so the byte check also
// covers answers served from its cache.
func FuzzPredict(f *testing.F) {
	s := New(Config{Rate: -1, MaxBodyBytes: fuzzMaxBody})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPredict(t, s, string(body))
	})
}
