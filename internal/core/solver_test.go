package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"crowdassess/internal/crowd"
	"crowdassess/internal/mat"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// datasetStats returns a binary dataset's statistics as every A2 solve
// reads them.
func datasetStats(ds *crowd.Dataset) *streamStats {
	s := newStreamStats(ds.Workers())
	s.setDataset(ds)
	return s
}

// workerBits flattens A2 results into comparable words: each worker's
// index, triple count, error text and the bits of its mean and deviation.
func workerBits(ds []WorkerDelta) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%d/%d/%v/%x/%x", d.Worker, d.Triples, d.Err,
			math.Float64bits(d.Est.Mean), math.Float64bits(d.Est.Dev))
	}
	return out
}

// karyBits flattens an A3 result into the bits of every mean, deviation
// and selectivity.
func karyBits(d *KAryDelta) []uint64 {
	var out []uint64
	for w := 0; w < 3; w++ {
		for _, m := range []*mat.Matrix{d.Mean[w], d.Dev[w]} {
			for a := range d.Selectivity {
				for b := range d.Selectivity {
					out = append(out, math.Float64bits(m.At(a, b)))
				}
			}
		}
	}
	for _, v := range d.Selectivity {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// moocTriple returns an emulated MOOC crowd and its first worker triple
// sharing at least 60 tasks: the shape of a Fig. 5(c) cell.
func moocTriple(t testing.TB) (*crowd.Dataset, [3]int) {
	t.Helper()
	ds, err := sim.EmulateMOOC(randx.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	att := ds.Attendance()
	for i := 0; i < ds.Workers(); i++ {
		for j := i + 1; j < ds.Workers(); j++ {
			for k := j + 1; k < ds.Workers(); k++ {
				if att.Common3(i, j, k) >= 60 {
					return ds, [3]int{i, j, k}
				}
			}
		}
	}
	t.Fatal("no MOOC triple shares 60 tasks")
	return nil, [3]int{}
}

// TestSolverReuse runs A2 crowds and an A3 triple, interleaved, on one
// Solver: every result must be bit-identical to a fresh solver's, and no
// returned result may change when the solver solves again.
func TestSolverReuse(t *testing.T) {
	small, _, err := sim.Binary{Tasks: 300, Workers: 9, Density: 0.7}.Generate(randx.NewSource(81))
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := sim.Binary{Tasks: 2000, Workers: 40, Density: 0.15}.Generate(randx.NewSource(82))
	if err != nil {
		t.Fatal(err)
	}
	mooc, triple := moocTriple(t)

	a2 := func(s *Solver, ds *crowd.Dataset, opts EvalOptions) []WorkerDelta {
		t.Helper()
		out, err := s.EvaluateWorkersDelta(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a3 := func(s *Solver) *KAryDelta {
		t.Helper()
		out, err := s.ThreeWorkerKAryDelta(mooc, triple)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	wantSmall := workerBits(a2(new(Solver), small, EvalOptions{}))
	wantLarge := workerBits(a2(new(Solver), large, EvalOptions{MinCommon: 3}))
	wantKAry := karyBits(a3(new(Solver)))

	var s Solver
	first := a2(&s, large, EvalOptions{MinCommon: 3})
	kary := a3(&s)
	second := a2(&s, small, EvalOptions{})
	third := a2(&s, large, EvalOptions{MinCommon: 3})
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"first A2 solve", workerBits(first), wantLarge},
		{"A2 after A3", workerBits(second), wantSmall},
		{"A2 on a larger crowd after a smaller one", workerBits(third), wantLarge},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s differs from a fresh solver's", c.name)
		}
	}
	if !slices.Equal(karyBits(kary), wantKAry) {
		t.Error("A3 after A2 differs from a fresh solver's")
	}
	for _, ds := range [][]WorkerDelta{first, second} {
		if failed := slices.IndexFunc(ds, func(d WorkerDelta) bool { return d.Err != nil }); failed >= 0 {
			t.Errorf("worker %d has no estimate (%v); the comparison should cover every worker", failed, ds[failed].Err)
		}
	}
}

// BenchmarkSolverReuse is the cost of one A2 crowd and one Fig. 5(c)-shaped
// A3 triple on a Solver kept across solves, as a figure goroutine keeps
// it, against a fresh solver per solve. Run it with -benchmem: the kept
// solver allocates only the dataset's attendance index and the result.
func BenchmarkSolverReuse(b *testing.B) {
	crowdDS, _, err := sim.Binary{Tasks: 2000, Workers: 40, Density: 0.3}.Generate(randx.NewSource(7))
	if err != nil {
		b.Fatal(err)
	}
	mooc, triple := moocTriple(b)
	solves := []struct {
		name  string
		solve func(*Solver) error
	}{
		{"A2", func(s *Solver) error { _, err := s.EvaluateWorkersDelta(crowdDS, EvalOptions{}); return err }},
		{"A3", func(s *Solver) error { _, err := s.ThreeWorkerKAryDelta(mooc, triple); return err }},
	}
	for _, c := range solves {
		b.Run(c.name+"/kept", func(b *testing.B) {
			var s Solver
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := c.solve(&s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := c.solve(new(Solver)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
