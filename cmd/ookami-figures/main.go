// Command ookami-figures regenerates every table and figure of the
// paper's evaluation section and prints them (optionally also writing
// text and CSV files to a results directory).
//
// Usage:
//
//	ookami-figures [-out results/] [-only fig1,fig2] [-extras] [-scorecard]
//
// The generators run through the certified memoized engine, with
// independent figures fanned across GOMAXPROCS goroutines. Output is
// printed in paper order and bit-identical to the direct computation —
// the engine only memoizes queries certified pure by the parsafe
// firewall.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ookami/internal/figures"
	"ookami/internal/parexec"
	"ookami/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ookami-figures: ")
	out := flag.String("out", "", "directory to write .txt and .csv files (empty: stdout only)")
	only := flag.String("only", "", "comma-separated figure ids to generate (default: all)")
	extras := flag.Bool("extras", false, "also generate the ablation studies beyond the paper")
	scorecard := flag.Bool("scorecard", false, "print the paper-vs-model audit scorecard and exit")
	flag.Parse()

	if *scorecard {
		fmt.Println(figures.Scorecard())
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	items := figures.All()
	if *extras {
		items = append(items, figures.Extras()...)
	}
	var selected []figures.Item
	for _, item := range items {
		if len(want) > 0 && !want[item.ID] {
			continue
		}
		selected = append(selected, item)
	}
	if len(selected) == 0 {
		log.Fatalf("no figures matched %q; known ids:\n  %s", *only, knownIDs())
	}

	// Generate fanned across parexec.Map, then print and write strictly
	// in paper order: tables land at their item's index.
	tables := make([]*stats.Table, len(selected))
	parexec.Map(len(selected), func(i int) { tables[i] = selected[i].Generate() })
	for i, item := range selected {
		tab := tables[i]
		fmt.Println(tab)
		if *out != "" {
			base := filepath.Join(*out, item.ID)
			if err := os.WriteFile(base+".txt", []byte(tab.String()), 0o644); err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(base+".csv", []byte(tab.CSV()), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *out != "" {
		log.Printf("wrote %d artifacts to %s", len(selected), *out)
	}
}

func knownIDs() string {
	var ids []string
	for _, item := range figures.All() {
		ids = append(ids, item.ID)
	}
	return strings.Join(ids, ", ")
}
