package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
)

// TestParallelMatchesSerial: the nc kernel split across explicit
// worker counts — and the registered method, which splits a table above
// the 4096-edge cutoff across GOMAXPROCS workers — reproduces the
// serial table bit for bit and keeps the scorer's name.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 3000, 9000) // above the serial fallback cutoff
	serial, err := New().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 7} {
		nc := New()
		par, err := nc.NewTable(g)
		if err != nil {
			t.Fatal(err)
		}
		filter.ParallelEdges(len(par.Score), workers, func(lo, hi int) { nc.ScoreEdges(par, lo, hi) })
		requireSameNC(t, fmt.Sprintf("workers=%d", workers), par, serial)
	}
	m, err := filter.Lookup("nc")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := m.Score(g)
	if err != nil {
		t.Fatal(err)
	}
	requireSameNC(t, "registered nc", reg, serial)
}

// requireSameNC fails unless got matches the serial table bit for bit,
// under the scorer's own name.
func requireSameNC(t *testing.T, label string, got, serial *filter.Scores) {
	t.Helper()
	if got.Method != "nc" {
		t.Errorf("%s: method = %q", label, got.Method)
	}
	for i := range serial.Score {
		if serial.Score[i] != got.Score[i] {
			t.Fatalf("%s: score[%d] = %v, serial %v (must be bit-identical)",
				label, i, got.Score[i], serial.Score[i])
		}
	}
	for col := range serial.Aux {
		for i := range serial.Aux[col] {
			if serial.Aux[col][i] != got.Aux[col][i] {
				t.Fatalf("%s: aux %q differs at %d", label, col, i)
			}
		}
	}
}

// TestParallelSmallGraphFallback: a table below the cutoff, which the
// registered method scores on one worker, keeps the scorer's name and
// validates.
func TestParallelSmallGraphFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyiGNM(rng, 50, 100)
	m, err := filter.Lookup("nc")
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Score(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Method != "nc" {
		t.Errorf("fallback lost method name: %q", s.Method)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func BenchmarkSerialNC100k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 70_000, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New().Scores(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelNC100k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ErdosRenyiGNM(rng, 70_000, 100_000)
	m, err := filter.Lookup("nc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(g); err != nil {
			b.Fatal(err)
		}
	}
}
