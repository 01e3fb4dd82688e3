package core

import (
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/gen"
)

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.ErdosRenyiGNM(rng, 3000, 9000) // above the serial fallback cutoff
	serial, err := New().Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 7} {
		par, err := (&filter.Parallel{RS: New(), Workers: workers}).Scores(g)
		if err != nil {
			t.Fatal(err)
		}
		if par.Method != "nc-parallel" {
			t.Errorf("method = %q", par.Method)
		}
		for i := range serial.Score {
			if serial.Score[i] != par.Score[i] {
				t.Fatalf("workers=%d: score[%d] = %v, serial %v (must be bit-identical)",
					workers, i, par.Score[i], serial.Score[i])
			}
		}
		for col := range serial.Aux {
			for i := range serial.Aux[col] {
				if serial.Aux[col][i] != par.Aux[col][i] {
					t.Fatalf("workers=%d: aux %q differs at %d", workers, col, i)
				}
			}
		}
	}
}

func TestParallelSmallGraphFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ErdosRenyiGNM(rng, 50, 100)
	s, err := filter.Parallelize(New()).Scores(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Method != "nc-parallel" {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Parallelize(New()).Scores(g); err != nil {
			b.Fatal(err)
		}
	}
}
