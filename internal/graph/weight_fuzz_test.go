package graph

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// FuzzAppendWeight: the integral fast path spells every float64 —
// -0, subnormals, 1e6, NaN and the infinities included — exactly as
// strconv.AppendFloat(w, 'g', -1, 64) does.
func FuzzAppendWeight(f *testing.F) {
	for _, w := range []float64{0, math.Copysign(0, -1), 0.5, 1, 999999, 1e6, 1e21, 5e-324, -3, math.Inf(1), math.Inf(-1), math.NaN(), 999999.5} {
		f.Add(math.Float64bits(w))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		w := math.Float64frombits(bits)
		got := appendWeight(nil, w)
		want := strconv.AppendFloat(nil, w, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendWeight(%v) = %q, want %q", w, got, want)
		}
	})
}
