package core

import (
	"math"

	"repro/internal/filter"
)

// The NC variants self-register into the default method registry so
// that the root pipeline, the CLI and the experiment harness discover
// them without per-method dispatch code. Adding an algorithm anywhere
// in the module is one MustRegister call.
func init() {
	filter.MustRegister(&filter.Method{
		Name:  "nc",
		Title: "Noise-Corrected",
		Desc:  "Bayesian noise-corrected backbone (Coscia & Neffke 2017); keeps edges whose lift exceeds delta posterior standard deviations",
		Order: 10,
		Params: []filter.Param{
			{Name: "delta", Default: 1.64, Desc: "significance threshold in standard deviations (1.28/1.64/2.32 ≈ p 0.10/0.05/0.01)"},
		},
		Scorer: New(),
		// Edge scores are independent given the precomputed node
		// strengths, so NC is embarrassingly parallel — the paper's
		// scalability regime ("exploring improvements in the
		// implementation ... could lead to its potential application
		// to networks with billions of edges", Section VII). Both
		// scorers run the same per-edge kernel, so results are
		// bit-identical to the serial one.
		ParallelScorer: filter.Parallelize(New()),
		Cut:            func(p filter.Params) float64 { return p["delta"] },
		// The NC score reads the global total weight (N..), so any
		// update dirties every row: incremental serving reuses the
		// materialized graph but re-scores the full table.
		Delta: &filter.DeltaScorer{Dirtiness: filter.DirtyGlobal},
	})
	filter.MustRegister(&filter.Method{
		Name:  "nc-binomial",
		Title: "NC Binomial",
		Desc:  "footnote-2 NC variant: direct upper-tail Binomial p-values against the bilateral null",
		Order: 70,
		Params: []filter.Param{
			{Name: "alpha", Default: 0.05, Desc: "significance level on the Binomial p-value"},
		},
		Scorer:         NewBinomial(),
		ParallelScorer: filter.Parallelize(NewBinomial()),
		Cut:            func(p filter.Params) float64 { return -math.Log10(p["alpha"]) },
		// Same global N.. term as nc: every row dirties on any update.
		Delta: &filter.DeltaScorer{Dirtiness: filter.DirtyGlobal},
	})
}
