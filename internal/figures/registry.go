// Package figures regenerates every table and figure of the paper's
// evaluation: the vector-loop suite (Figs. 1-2), the Section IV
// exponential study, the NPB results (Figs. 3-6), the LULESH timings
// (Table II / Fig. 7), the system table (Table III) and the HPCC results
// (Figs. 8-9). Each generator returns a stats.Table that can be rendered
// as text or CSV, and the package's tests assert the paper's qualitative
// shape for each one.
package figures

import "ookami/internal/stats"

// Item is one regenerable artifact: a figure or table of the paper.
type Item struct {
	ID       string // e.g. "fig1", "tableII"
	Title    string
	Generate func() *stats.Table
}

// All lists every artifact in paper order. Iterating and rendering this
// list reproduces the complete evaluation section.
func All() []Item {
	return []Item{
		{"fig1", "Simple vector loops relative to Intel/Skylake", Fig1},
		{"fig2", "Math-function loops relative to Intel/Skylake", Fig2},
		{"expstudy", "Section IV: the exponential function", ExpStudy},
		{"fig3", "NPB single-core runtimes", Fig3},
		{"fig4", "NPB all-core runtimes", Fig4},
		{"fig5", "NPB parallel efficiency on A64FX (GNU)", Fig5},
		{"fig6", "NPB parallel efficiency on Skylake (Intel)", Fig6},
		{"tableII", "LULESH timings (Table II / Fig. 7)", TableII},
		{"tableIII", "Compared systems (Table III)", TableIII},
		{"fig8", "EP-DGEMM per-core performance", Fig8},
		{"fig9ab", "HPL single- and multi-node", Fig9AB},
		{"fig9cd", "FFT single- and multi-node", Fig9CD},
	}
}

// ByID returns the artifact with the given id.
func ByID(id string) (Item, bool) {
	for _, it := range All() {
		if it.ID == id {
			return it, true
		}
	}
	return Item{}, false
}
