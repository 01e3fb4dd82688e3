package stats

import (
	"math"
	"math/rand"
)

// SamplePoisson draws from Poisson(lambda). Knuth's product method is
// used for small rates; for large rates the PTRS transformed-rejection
// sampler of Hörmann (1993) keeps the draw O(1). The synthetic world
// generator uses Poisson counts for gravity-model edge weights.
func SamplePoisson(rng *rand.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	return poissonPTRS(rng, lambda)
}

func poissonPTRS(rng *rand.Rand, lambda float64) int64 {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLam := math.Log(lambda)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLam-lambda-lg {
			return int64(k)
		}
	}
}

// SampleLogNormal draws exp(mu + sigma*Z). Firm-size multipliers in the
// Ownership network and country populations are log-normal.
func SampleLogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// SampleUniform draws U(lo, hi). The Fig-4 synthetic noise model weights
// true edges by (k_i+k_j)·U(eta, 1) and noise edges by (k_i+k_j)·U(0, eta).
func SampleUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}
