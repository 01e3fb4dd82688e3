package stats

import "math"

// Test oracles: closed forms the tests check the production
// distributions against.

// LogBinomialCoef returns log C(n, k) via log-gamma.
func LogBinomialCoef(n, k float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln, _ := math.Lgamma(n + 1)
	lk, _ := math.Lgamma(k + 1)
	lnk, _ := math.Lgamma(n - k + 1)
	return ln - lk - lnk
}

// BinomialLogPMF returns log P(X = k) for X ~ Binomial(n, p).
func BinomialLogPMF(k, n, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogBinomialCoef(n, k) + k*math.Log(p) + (n-k)*math.Log1p(-p)
}

// BetaMoments returns the mean and variance of a Beta(alpha, beta)
// distribution (paper Eqs. 5 and 6).
func BetaMoments(alpha, beta float64) (mean, variance float64) {
	s := alpha + beta
	mean = alpha / s
	variance = alpha * beta / (s * s * (s + 1))
	return mean, variance
}
