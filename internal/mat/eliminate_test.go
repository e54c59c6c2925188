package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialFloats are the values elimination must carry through bit for
// bit: NaNs with three payloads, both infinities and zeros, subnormals,
// and the largest finite values, whose products overflow.
var specialFloats = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8_0000_0000_0000),
	math.Float64frombits(0xfff4_0000_dead_beef),
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, 3,
}

// floatsFrom draws n matrix entries from the bytes: each entry takes one
// selector byte, and a selector below 64 picks a special value, below 128
// a small ratio, and otherwise the next eight bytes as the float's bits.
// The bytes repeat as needed; none at all give zeros.
func floatsFrom(data []byte, n int) []float64 {
	out := make([]float64, n)
	if len(data) == 0 {
		return out
	}
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	for i := range out {
		switch sel := next(); {
		case sel < 64:
			out[i] = specialFloats[int(sel)%len(specialFloats)]
		case sel < 128:
			out[i] = float64(int8(next())) / float64(1+next())
		default:
			var word [8]byte
			for k := range word {
				word[k] = next()
			}
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
	}
	return out
}

// checkEliminate runs eliminate (the AVX2 kernel on amd64 CPUs with AVX2
// for tails of kernelTail or more), the kernel itself at any tail, and the
// Go loop on copies of a, and requires every element to come out with the
// same bits.
func checkEliminate(t *testing.T, a []float64, n, col int) {
	t.Helper()
	want := append([]float64(nil), a...)
	eliminateGo(want, n, col)
	for _, k := range []struct {
		name string
		elim func(a []float64, n, col int)
	}{{"eliminate", eliminate}, {"the kernel", eliminateKernel}} {
		got := append([]float64(nil), a...)
		k.elim(got, n, col)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d col=%d: %s leaves element (%d,%d) at %v (%#x), Go loop %v (%#x)",
					n, col, k.name, i/n, i%n, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestEliminateMatchesGo holds eliminate to the Go loop on every pivot
// column of random matrices of 1–40 rows, so tails of 0–39 elements, and
// on matrices laced with special values.
func TestEliminateMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for n := 1; n <= 40; n++ {
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		raw := make([]byte, 4*n*n)
		rng.Read(raw)
		specials := floatsFrom(raw, n*n)
		for col := 0; col < n; col++ {
			checkEliminate(t, a, n, col)
			checkEliminate(t, specials, n, col)
		}
	}
}

// TestLUFactorMatchesGo factors random and nearly singular matrices with
// the kernel and with the Go loop and requires the same factors, the same
// permutation and the same refusals.
func TestLUFactorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{1, 2, 4, 5, 8, 17, 64, 131} {
		for trial := range 3 {
			src := New(n, n)
			for i := range src.data {
				src.data[i] = rng.NormFloat64()
			}
			if trial == 2 && n > 1 {
				copy(src.RowView(n-1), src.RowView(0)) // singular
			}
			kernel, goLoop := NewLU(n), NewLU(n)
			kernel.lu.CopyFrom(src)
			goLoop.lu.CopyFrom(src)
			errK, errG := kernel.refactor(eliminate), goLoop.refactor(eliminateGo)
			if errK != errG {
				t.Fatalf("n=%d trial %d: kernel error %v, Go loop %v", n, trial, errK, errG)
			}
			for i := range kernel.lu.data {
				if math.Float64bits(kernel.lu.data[i]) != math.Float64bits(goLoop.lu.data[i]) {
					t.Fatalf("n=%d trial %d: factor element %d differs", n, trial, i)
				}
			}
			for i := range kernel.perm {
				if kernel.perm[i] != goLoop.perm[i] {
					t.Fatalf("n=%d trial %d: permutations differ", n, trial)
				}
			}
		}
	}
}

// FuzzEliminate feeds eliminate and the Go loop one matrix and pivot
// column cut from the fuzzer's bytes. The first two bytes set n (1–200);
// an even third byte sets a tail of n-col-1 = (fourth byte)%18 elements
// (clamped to n-1), an odd one col = (fourth byte)%n. The rest become the
// entries (floatsFrom), NaNs, infinities, signed zeros and subnormals
// among them.
func FuzzEliminate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 0, 0, 5, 1, 2, 3, 200, 9, 9, 9, 9, 9, 9, 9, 9, 60})
	f.Add([]byte{199, 0, 1, 3, 70, 1, 2, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(binary.LittleEndian.Uint16(data))%200
		col := int(data[3]) % n
		if data[2]&1 == 0 {
			col = max(0, n-1-int(data[3])%18)
		}
		checkEliminate(t, floatsFrom(data[4:], n*n), n, col)
	})
}

var luSink error

// BenchmarkLUFactor times one factorization of a random l×l matrix, the
// Lemma 5 weight solve's size for a worker with l triples, with each pivot
// column's elimination in the kernel ("kernel": the AVX2 kernel on amd64
// CPUs with AVX2) and in the Go loop ("go").
func BenchmarkLUFactor(b *testing.B) {
	for _, l := range []int{8, 16, 32, 64, 128, 160} {
		src := New(l, l)
		rng := rand.New(rand.NewSource(int64(l)))
		for i := range src.data {
			src.data[i] = rng.NormFloat64()
		}
		for _, k := range []struct {
			name string
			elim func(a []float64, n, col int)
		}{{"kernel", eliminate}, {"go", eliminateGo}} {
			b.Run(fmt.Sprintf("l=%d/%s", l, k.name), func(b *testing.B) {
				f := NewLU(l)
				for n := 0; n < b.N; n++ {
					f.lu.CopyFrom(src)
					luSink = f.refactor(k.elim)
				}
			})
		}
	}
}
