package backbone

import (
	"repro/internal/filter"
)

// Every baseline self-registers into the default method registry, in
// the paper's presentation order after NC (Order 10): DF, HSS, DS,
// MST, NT, then the extra traditional baselines.
func init() {
	filter.MustRegister(&filter.Method{
		Name:  "df",
		Title: "Disparity Filter",
		Desc:  "disparity filter (Serrano et al. 2009); keeps edges significant at level alpha under a uniform-split null",
		Order: 20,
		Params: []filter.Param{
			{Name: "alpha", Default: 0.05, Desc: "significance level on the disparity p-value"},
		},
		Scorer: NewDisparity(),
		Cut:    func(p filter.Params) float64 { return 1 - p["alpha"] },
		// The disparity p-value reads only the edge weight and its
		// endpoints' strength/degree: an update dirties the frontier of
		// rows incident to touched nodes.
		Delta: &filter.DeltaScorer{Dirtiness: filter.DirtyEndpoints},
	})
	filter.MustRegister(&filter.Method{
		Name:  "hss",
		Title: "High Salience Skeleton",
		Desc:  "high salience skeleton (Grady et al. 2012); keeps edges on many shortest-path trees",
		Order: 30,
		Params: []filter.Param{
			{Name: "salience", Default: 0.5, Desc: "minimum share of shortest-path trees containing the edge"},
		},
		Scorer: NewHSS(),
		Cut:    func(p filter.Params) float64 { return p["salience"] },
	})
	ds := NewDoublyStochastic()
	filter.MustRegister(&filter.Method{
		Name:      "ds",
		Title:     "Doubly Stochastic",
		Desc:      "Sinkhorn-normalized weights added strongest-first until connected (Slater 2009); parameter-free",
		Order:     40,
		Scorer:    ds,
		Extractor: ds,
		FixedSize: true,
	})
	filter.MustRegister(&filter.Method{
		Name:      "mst",
		Title:     "Maximum Spanning Tree",
		Desc:      "maximum spanning forest by Kruskal; parameter-free, fixed size",
		Order:     50,
		Extractor: NewMST(),
		FixedSize: true,
	})
	filter.MustRegister(&filter.Method{
		Name:  "nt",
		Title: "Naive Threshold",
		Desc:  "classic weight threshold: keep edges strictly heavier than the cut",
		Order: 60,
		Params: []filter.Param{
			{Name: "threshold", Default: 0, Desc: "minimum edge weight"},
		},
		Scorer: NewNaive(),
		Cut:    func(p filter.Params) float64 { return p["threshold"] },
		// The naive score is the edge weight itself: only rows whose
		// weight changed (or were inserted) dirty.
		Delta: &filter.DeltaScorer{Dirtiness: filter.DirtyEdge},
	})
	filter.MustRegister(&filter.Method{
		Name:  "kcore",
		Title: "K-Core",
		Desc:  "k-core decomposition backbone (Seidman 1983); keeps edges whose endpoints both survive degree-k peeling",
		Order: 80,
		Params: []filter.Param{
			{Name: "k", Default: 2, Integer: true, Desc: "minimum degree of the k-core"},
		},
		Scorer: NewKCore(),
		Cut:    func(p filter.Params) float64 { return float64(int(p["k"])) - 0.5 },
	})
}
