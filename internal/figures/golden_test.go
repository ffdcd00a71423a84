package figures

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-file regression: every figure and ablation output is pinned to
// its committed text artifact, results/<id>.txt. Any change to the performance model's calibration shows up
// as a diff here, so calibration drift is a reviewed decision, not an
// accident. Refresh with:
//
//	go test ./internal/figures -run Golden -update
var update = flag.Bool("update", false, "rewrite golden figure outputs")

func TestGoldenFigures(t *testing.T) {
	items := append(All(), Extras()...)
	for _, it := range items {
		if it.ID == "expstudy" {
			// Its accuracy row is measured against math.Exp, whose
			// result depends on the host CPU (EXPERIMENTS.md, "Section
			// IV accuracy row"); covered by value tests.
			continue
		}
		t.Run(it.ID, func(t *testing.T) {
			got := it.Generate().String()
			path := filepath.Join("..", "..", "results", it.ID+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from golden file %s.\nGot:\n%s\nWant:\n%s",
					path, got, want)
			}
		})
	}
}
