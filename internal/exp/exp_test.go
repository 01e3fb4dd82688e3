package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/occupations"
	"repro/internal/world"
)

// testCountry builds a small shared world once; the experiments only
// need the qualitative shapes, not the paper-scale sizes.
var testCountryCache *Country

func testCountry(t *testing.T) *Country {
	t.Helper()
	if testCountryCache == nil {
		testCountryCache = NewCountry(world.Config{Seed: 7, Countries: 70, Products: 200, Years: 3})
	}
	return testCountryCache
}

func TestMethodsRegistry(t *testing.T) {
	ms := Methods()
	if len(ms) != 6 {
		t.Fatalf("methods = %d, want 6", len(ms))
	}
	for i, m := range ms {
		if m.Name != paperOrder[i] {
			t.Errorf("method %d = %s, want %s", i, m.Name, paperOrder[i])
		}
		if reg, err := filter.Lookup(m.Name); err != nil || reg != m {
			t.Errorf("%s is not the registry's method (%v)", m.Name, err)
		}
	}
}

func TestFig3ToyExample(t *testing.T) {
	rows, err := Fig3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("toy example has %d edges, want 6", len(rows))
	}
	var e23 Fig3Row
	hubRanksNC, hubRanksDF := []int{}, []int{}
	for _, r := range rows {
		if r.Edge == "2-3" {
			e23 = r
		} else if strings.HasPrefix(r.Edge, "1-") && r.Weight == 8 {
			// pure peripheral spokes 1-4, 1-5, 1-6
			hubRanksNC = append(hubRanksNC, r.NCRank)
			hubRanksDF = append(hubRanksDF, r.DFRank)
		}
	}
	// The paper's Figure 3 claim: NC ranks 2-3 above the weak hub
	// spokes; DF ranks the hub spokes above 2-3.
	for i := range hubRanksNC {
		if e23.NCRank >= hubRanksNC[i] {
			t.Errorf("NC: 2-3 rank %d not better than hub spoke rank %d", e23.NCRank, hubRanksNC[i])
		}
		if e23.DFRank <= hubRanksDF[i] {
			t.Errorf("DF: 2-3 rank %d unexpectedly better than hub spoke rank %d", e23.DFRank, hubRanksDF[i])
		}
	}
	if Fig3Table(rows).Render() == "" {
		t.Error("empty render")
	}
}

func TestFig4RecoveryShape(t *testing.T) {
	cfg := Fig4Config{Seed: 4, Nodes: 80, MeanDegree: 3,
		Etas: []float64{0.05, 0.25}, Reps: 2}
	res, err := Fig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := res.Recovery["nc"]
	// NC must recover most of the backbone at low noise and degrade
	// gracefully; at high noise it must beat the naive threshold and MST.
	if nc[0] < 0.6 {
		t.Errorf("NC low-noise recovery = %v, want high", nc[0])
	}
	if nc[1] <= res.Recovery["mst"][1] {
		t.Errorf("NC %v <= MST %v at high noise", nc[1], res.Recovery["mst"][1])
	}
	if nc[1] < res.Recovery["nt"][1]-0.05 {
		t.Errorf("NC %v clearly below NT %v at high noise", nc[1], res.Recovery["nt"][1])
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig2Distributions(t *testing.T) {
	c := testCountry(t)
	g := c.Datasets[1].Latest() // Country Space
	res, err := Fig2(context.Background(), "Country Space", g, []float64{1, 2, 3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Higher delta shifts the distribution left: acceptance share must
	// be non-increasing in delta.
	if !(res.ShareAccepted[0] >= res.ShareAccepted[1] && res.ShareAccepted[1] >= res.ShareAccepted[2]) {
		t.Errorf("acceptance shares not monotone: %v", res.ShareAccepted)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFig5AndFig6(t *testing.T) {
	c := testCountry(t)
	r5 := Fig5(c)
	if len(r5.Networks) != 6 {
		t.Fatalf("fig5 networks = %d", len(r5.Networks))
	}
	if r5.Span["Trade"] < 4 {
		t.Errorf("Trade span = %v, want broad", r5.Span["Trade"])
	}
	if r5.Span["Country Space"] >= r5.Span["Trade"] {
		t.Error("Country Space should be the narrowest distribution")
	}
	r6 := Fig6(c)
	for _, name := range r6.Networks {
		if r6.Corr[name] < 0.15 {
			t.Errorf("%s local correlation = %v, want positive as in Fig 6", name, r6.Corr[name])
		}
	}
	if r5.Table().Render() == "" || r6.Table().Render() == "" {
		t.Error("empty renders")
	}
}

func TestTable1VarianceValidation(t *testing.T) {
	c := testCountry(t)
	res, err := Table1(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Networks) != 6 {
		t.Fatalf("networks = %d", len(res.Networks))
	}
	for _, name := range res.Networks {
		r := res.Corr[name]
		if math.IsNaN(r) {
			t.Errorf("%s: NaN correlation", name)
			continue
		}
		if r < 0 {
			t.Errorf("%s: negative predicted-observed correlation %v", name, r)
		}
	}
	// Paper ordering: Ownership the most predictable, Migration the least.
	if res.Corr["Ownership"] <= res.Corr["Migration"] {
		t.Errorf("Ownership %v <= Migration %v: drift calibration lost the Table-I ordering",
			res.Corr["Ownership"], res.Corr["Migration"])
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig7Coverage(t *testing.T) {
	c := testCountry(t)
	res, err := Fig7(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range res.Networks {
		nc := res.Values[net]["nc"]
		last := nc[len(nc)-1]
		if math.Abs(last-1) > 1e-9 {
			t.Errorf("%s: NC coverage at share 1.0 = %v, want 1", net, last)
		}
		// Coverage must be non-decreasing in the share kept.
		for i := 1; i < len(nc); i++ {
			if nc[i] < nc[i-1]-1e-9 {
				t.Errorf("%s: NC coverage not monotone: %v", net, nc)
				break
			}
		}
		// MST achieves perfect coverage by definition.
		if mst := res.Values[net]["mst"][0]; math.Abs(mst-1) > 1e-9 {
			t.Errorf("%s: MST coverage = %v, want 1", net, mst)
		}
	}
	// DS must be n/a (NaN) on Business, Flight, Ownership.
	for _, net := range []string{"Business", "Flight", "Ownership"} {
		if v := res.Values[net]["ds"][0]; !math.IsNaN(v) {
			t.Errorf("%s: DS coverage = %v, want n/a", net, v)
		}
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig8Stability(t *testing.T) {
	c := testCountry(t)
	res, err := Fig8(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports stability above .84 everywhere. At this reduced
	// test scale small backbones hold few edges and rank correlations
	// are noisy, so assert a softer floor on the NC backbone at the
	// larger shares, and mere existence elsewhere.
	for _, net := range res.Networks {
		for _, m := range []string{"nc", "df", "nt"} {
			vals := res.Values[net][m]
			any := false
			for _, v := range vals {
				if !math.IsNaN(v) {
					any = true
				}
			}
			if !any {
				t.Errorf("%s/%s: no stability values", net, m)
			}
		}
		nc := res.Values[net]["nc"]
		for si := len(res.Shares) - 3; si < len(res.Shares); si++ {
			if v := nc[si]; !math.IsNaN(v) && v < 0.5 {
				t.Errorf("%s: NC stability %v at share %v, want > 0.5", net, v, res.Shares[si])
			}
		}
	}
}

func TestTable2Quality(t *testing.T) {
	c := testCountry(t)
	res, err := Table2(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claims: NC quality > 1 on every network; NC beats
	// every size-tunable competitor (DF, HSS, NT) in every column; and
	// NC stays within a whisker of the parameter-free methods (MST, DS),
	// whose backbones have a different, untunable size and are therefore
	// not an equal-|E*| comparison (see EXPERIMENTS.md).
	for _, net := range res.Networks {
		ncq := res.Quality["nc"][net]
		if math.IsNaN(ncq) {
			t.Errorf("%s: NC quality is NaN", net)
			continue
		}
		if ncq <= 1 {
			t.Errorf("%s: NC quality = %v, want > 1", net, ncq)
		}
		for _, m := range res.Methods {
			if m.Name == "nc" {
				continue
			}
			q := res.Quality[m.Name][net]
			if math.IsNaN(q) {
				continue
			}
			tunable := m.Name == "df" || m.Name == "hss" || m.Name == "nt"
			if tunable && q > ncq*1.02 {
				t.Errorf("%s: %s quality %v beats NC %v", net, m.Name, q, ncq)
			}
			if !tunable && q > ncq*1.18 {
				t.Errorf("%s: %s quality %v far above NC %v", net, m.Name, q, ncq)
			}
		}
	}
	// DS must be n/a exactly on the paper's three networks.
	for _, net := range []string{"Business", "Flight", "Ownership"} {
		if !math.IsNaN(res.Quality["ds"][net]) {
			t.Errorf("%s: DS should be n/a", net)
		}
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig1CommunityRecovery(t *testing.T) {
	res, err := Fig1(context.Background(), 1, 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NMIBackbone <= res.NMIFull {
		t.Errorf("backbone NMI %v <= full NMI %v: backboning did not help",
			res.NMIBackbone, res.NMIFull)
	}
	if res.NMIBackbone < 0.7 {
		t.Errorf("backbone NMI = %v, want strong recovery", res.NMIBackbone)
	}
	if res.EdgesBackbone >= res.EdgesFull {
		t.Error("backbone did not prune")
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestCaseStudyShape(t *testing.T) {
	// Scale matters: the DF-pollution mechanism needs enough small
	// occupations; 216 nodes is the smallest size with stable orderings.
	cfg := occupations.Config{Seed: 3, Majors: 6, MinorsPerMajor: 3, OccsPerMinor: 12,
		CoreSkills: 12, GenericSkills: 24}
	res, err := CaseStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's qualitative findings. Node retention is near-total for
	// both methods at test scale, so allow a whisker of slack; the
	// paper-scale run (cmd/experiments casestudy) shows the full gap.
	if res.NC.NodesRetained < res.DF.NodesRetained-2 {
		t.Errorf("NC retained %d nodes < DF %d", res.NC.NodesRetained, res.DF.NodesRetained)
	}
	if res.NC.NodesRetained < res.Occupations*9/10 {
		t.Errorf("NC retained only %d of %d nodes", res.NC.NodesRetained, res.Occupations)
	}
	if res.NC.ModularityClasses <= res.DF.ModularityClasses {
		t.Errorf("NC class modularity %v <= DF %v", res.NC.ModularityClasses, res.DF.ModularityClasses)
	}
	if res.FlowCorrNC <= res.FlowCorrFull {
		t.Errorf("NC flow corr %v <= full %v", res.FlowCorrNC, res.FlowCorrFull)
	}
	if res.FlowCorrNC <= res.FlowCorrDF {
		t.Errorf("NC flow corr %v <= DF %v", res.FlowCorrNC, res.FlowCorrDF)
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestAblationBayesHelps(t *testing.T) {
	cfg := Fig4Config{Seed: 8, Nodes: 80, MeanDegree: 3, Etas: []float64{0.2}, Reps: 3}
	res, err := Ablation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := res.Recovery["nc"][0]
	plugin := res.Recovery["nc-plugin"][0]
	if full < plugin-0.1 {
		t.Errorf("full NC %v much worse than plug-in %v", full, plugin)
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig9SmallScale(t *testing.T) {
	cfg := Fig9Config{Seed: 1, NodeCounts: []int{500, 1000, 2000}, Reps: 1, MaxExpensiveEdges: 800}
	res, err := Fig9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 3 {
		t.Fatalf("sizes = %d", len(res.Edges))
	}
	for _, m := range []string{"nc", "df", "nt", "mst"} {
		for si, v := range res.Seconds[m] {
			if math.IsNaN(v) {
				t.Errorf("%s missing timing at size %d", m, res.Edges[si])
			}
		}
	}
	// HSS must be skipped on the larger sizes.
	if !math.IsNaN(res.Seconds["hss"][2]) {
		t.Error("HSS was not skipped above MaxExpensiveEdges")
	}
	if res.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"T", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if f3(math.NaN()) != "n/a" || f4(math.NaN()) != "n/a" {
		t.Error("NaN formatting")
	}
}
