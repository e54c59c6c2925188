package core

import (
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// synthConfusion builds a diagonally dominant, worker- and row-asymmetric
// confusion matrix for any arity: distinct spectra keep the A3 spectral
// step non-degenerate at every k, unlike uniform off-diagonal mass.
func synthConfusion(k, w int) [][]float64 {
	p := make([][]float64, k)
	for a := range p {
		p[a] = make([]float64, k)
		var sum float64
		for b := range p[a] {
			d := a - b
			if d < 0 {
				d = -d
			}
			v := 1 / (1 + float64(d)*(1.3+0.4*float64(w)))
			if a == b {
				v += 1.5 + 0.13*float64(a) + 0.21*float64(w)
			}
			p[a][b] = v
			sum += v
		}
		for b := range p[a] {
			p[a][b] /= sum
		}
	}
	return p
}

// synthCounts builds the expected A3 counts tensor for three synthetic
// workers over n regular tasks — the same construction as exactCounts but
// available at any arity.
func synthCounts(k int, n float64) *crowd.Tensor3 {
	p1, p2, p3 := synthConfusion(k, 0), synthConfusion(k, 1), synthConfusion(k, 2)
	sel := make([]float64, k)
	var selSum float64
	for i := range sel {
		sel[i] = 1 + 0.17*float64(i)
		selSum += sel[i]
	}
	for i := range sel {
		sel[i] /= selSum
	}
	t3 := crowd.NewTensor3(k)
	for a := 1; a <= k; a++ {
		for b := 1; b <= k; b++ {
			for c := 1; c <= k; c++ {
				var v float64
				for t := 0; t < k; t++ {
					v += sel[t] * p1[t][a-1] * p2[t][b-1] * p3[t][c-1]
				}
				t3.Set(a, b, c, n*v)
			}
		}
	}
	return t3
}

// BenchmarkProbEstimate measures the steady-state spectral step with a
// warmed per-goroutine workspace — the configuration the gradient loop
// runs in. The interesting numbers are ns/op versus the PR 1 baseline
// (value-returning mat API) and allocs/op, which must be 0.
func BenchmarkProbEstimate(b *testing.B) {
	for _, k := range []int{2, 3, 4, 6, 8} {
		b.Run("k"+itoaTest(k), func(b *testing.B) {
			counts := synthCounts(k, 5000)
			ws := mat.NewWorkspace()
			if _, err := probEstimate(counts, ws); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				if _, err := probEstimate(counts, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThreeWorkerKAryDelta times Algorithm A3 on simulated triples of
// Figure 5(b)'s shape: 500 tasks, the paper's confusion matrices, one
// triple at each density 0.5, 0.55, …, 0.95, from the first seed at that
// density whose solve succeeds. One op solves all ten. Unlike
// BenchmarkProbEstimate's noise-free counts, sampled counts drive the
// shifted QR through the complex-pair runs that dominate Figure 5(b).
func BenchmarkThreeWorkerKAryDelta(b *testing.B) {
	for _, k := range []int{3, 4} {
		b.Run("k"+itoaTest(k), func(b *testing.B) {
			var s Solver
			var triples []*crowd.Dataset
			for i := 0; i < 10; i++ {
				cfg := sim.KAry{Tasks: 500, Workers: 3, Density: 0.5 + 0.05*float64(i), ConfusionChoices: sim.PaperMatrices(k)}
				for seed := int64(1); ; seed++ {
					if seed > 1000 {
						b.Fatalf("k=%d density %v: no seed up to 1000 solves", k, cfg.Density)
					}
					ds, _, err := cfg.Generate(randx.NewSource(seed))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2}); err == nil {
						triples = append(triples, ds)
						break
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ds := range triples {
					if _, err := s.ThreeWorkerKAryDelta(ds, [3]int{0, 1, 2}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkLemma4Quad measures the structured Lemma-4 quadratic form
// against materializing the dense l×l matrix and evaluating it.
func BenchmarkLemma4Quad(b *testing.B) {
	cov, weights := benchLemma4(b, 51)
	b.Run("structured", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFloat = cov.Quad(weights)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := mat.New(cov.Dim(), cov.Dim())
			cov.MaterializeInto(dst)
			sinkFloat = (DenseCov{dst}).Quad(weights)
		}
	})
}

var sinkFloat float64

func itoaTest(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
