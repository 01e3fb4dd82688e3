package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.2815515655446004, 0.9},
		{1.6448536269514722, 0.95},
		{2.3263478740408408, 0.99},
		{-1.959963984540054, 0.025},
	}
	for _, c := range cases {
		approx(t, NormalCDF(c.z), c.want, 1e-9, "NormalCDF")
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-8, 0.001, 0.01, 0.05, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-8} {
		z := NormalQuantile(p)
		approx(t, NormalCDF(z), p, 1e-9, "CDF(Quantile(p))")
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("boundary quantiles should be infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestPaperDeltaValues(t *testing.T) {
	// The paper: δ of 1.28, 1.64, 2.32 approximate p-values 0.1, 0.05, 0.01.
	approx(t, 1-NormalCDF(1.28), 0.1, 5e-3, "delta 1.28")
	approx(t, 1-NormalCDF(1.64), 0.05, 5e-3, "delta 1.64")
	approx(t, 1-NormalCDF(2.32), 0.01, 5e-3, "delta 2.32")
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	n, p := 25.0, 0.3
	var sum float64
	for k := 0.0; k <= n; k++ {
		sum += math.Exp(BinomialLogPMF(k, n, p))
	}
	approx(t, sum, 1, 1e-10, "PMF normalization")
}

func TestBinomialSFAgainstDirectSum(t *testing.T) {
	n, p := 40.0, 0.15
	for _, k := range []float64{0, 1, 5, 6, 10, 20, 40} {
		var want float64
		for j := k; j <= n; j++ {
			want += math.Exp(BinomialLogPMF(j, n, p))
		}
		approx(t, BinomialSF(k, n, p), want, 1e-9, "BinomialSF")
	}
	if BinomialSF(41, 40, 0.5) != 0 {
		t.Error("SF beyond n should be 0")
	}
	if BinomialSF(0, 40, 0.5) != 1 {
		t.Error("SF at 0 should be 1")
	}
}

func TestBinomialDegenerateP(t *testing.T) {
	if got := BinomialLogPMF(0, 10, 0); got != 0 {
		t.Errorf("logPMF(0;n,p=0) = %v, want 0", got)
	}
	if !math.IsInf(BinomialLogPMF(1, 10, 0), -1) {
		t.Error("logPMF(1;n,p=0) should be -Inf")
	}
	if got := BinomialLogPMF(10, 10, 1); got != 0 {
		t.Errorf("logPMF(n;n,p=1) = %v, want 0", got)
	}
}

func TestRegIncBetaProperties(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.33, 0.7, 0.99} {
		approx(t, RegIncBeta(1, 1, x), x, 1e-12, "I_x(1,1)")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, RegIncBeta(3, 7, 0.2), 1-RegIncBeta(7, 3, 0.8), 1e-12, "symmetry")
	if RegIncBeta(2, 2, 0) != 0 || RegIncBeta(2, 2, 1) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestBetaMomentsRoundTrip(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{{2, 5}, {0.5, 0.5}, {10, 1}, {3, 3}} {
		mu, v := BetaMoments(c.a, c.b)
		a2, b2 := BetaFromMoments(mu, v)
		approx(t, a2, c.a, 1e-9, "alpha round trip")
		approx(t, b2, c.b, 1e-9, "beta round trip")
	}
}

// Property: BetaFromMoments inverts BetaMoments for any valid (mu, sigma2).
func TestQuickBetaMomentInversion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mu := 0.01 + 0.98*rng.Float64()
		// Valid variance must be below mu(1-mu).
		sigma2 := mu * (1 - mu) * (0.01 + 0.9*rng.Float64())
		a, b := BetaFromMoments(mu, sigma2)
		if a <= 0 || b <= 0 {
			return false
		}
		m2, v2 := BetaMoments(a, b)
		return math.Abs(m2-mu) < 1e-9 && math.Abs(v2-sigma2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSamplePoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, lambda := range []float64{0.5, 3, 25, 80, 1000} {
		const n = 20000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := float64(SamplePoisson(rng, lambda))
			sum += x
			sumsq += x * x
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		tol := 5 * math.Sqrt(lambda/n) * 3 // generous ~3 "sigma" guard
		if math.Abs(mean-lambda) > math.Max(tol, 0.05*lambda) {
			t.Errorf("Poisson(%v): mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+1 {
			t.Errorf("Poisson(%v): variance = %v", lambda, variance)
		}
	}
	if SamplePoisson(rng, 0) != 0 || SamplePoisson(rng, -1) != 0 {
		t.Error("non-positive lambda should yield 0")
	}
}

func TestSampleLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = SampleLogNormal(rng, 2, 0.8)
	}
	approx(t, Median(xs), math.Exp(2), 0.3, "log-normal median = e^mu")
}
