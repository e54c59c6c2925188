package crowd

import "fmt"

// Tensor3 is the (k+1)×(k+1)×(k+1) response-count array of Algorithm A3:
// entry [a][b][c] counts tasks where worker 1 responded a, worker 2
// responded b, and worker 3 responded c (0 = did not attempt). Entries are
// float64 because the algorithm perturbs them by ±ε during numeric
// differentiation.
type Tensor3 struct {
	k    int // arity; indices run 0…k
	data []float64
}

// NewTensor3 returns a zeroed counts tensor for arity k ≥ 2.
func NewTensor3(k int) *Tensor3 {
	if k < 2 {
		panic(fmt.Sprintf("crowd: tensor arity %d < 2", k))
	}
	n := k + 1
	return &Tensor3{k: k, data: make([]float64, n*n*n)}
}

// Arity returns k.
func (t *Tensor3) Arity() int { return t.k }

func (t *Tensor3) idx(a, b, c int) int {
	n := t.k + 1
	if a < 0 || a > t.k || b < 0 || b > t.k || c < 0 || c > t.k {
		panic(fmt.Sprintf("crowd: tensor index (%d,%d,%d) out of range 0…%d", a, b, c, t.k))
	}
	return (a*n+b)*n + c
}

// At returns the count for the response combination (a, b, c).
func (t *Tensor3) At(a, b, c int) float64 { return t.data[t.idx(a, b, c)] }

// Flat returns the tensor's storage, aliasing it: the count for (a, b, c)
// is at index (a·(k+1) + b)·(k+1) + c.
func (t *Tensor3) Flat() []float64 { return t.data }

// Set assigns the count for (a, b, c).
func (t *Tensor3) Set(a, b, c int, v float64) { t.data[t.idx(a, b, c)] = v }

// Add increments the count for (a, b, c) by v.
func (t *Tensor3) Add(a, b, c int, v float64) { t.data[t.idx(a, b, c)] += v }

// Clone returns a deep copy.
func (t *Tensor3) Clone() *Tensor3 {
	c := NewTensor3(t.k)
	copy(c.data, t.data)
	return c
}

// Total returns the sum of all entries (the number of tasks counted,
// excluding the all-None combination if it was never stored).
func (t *Tensor3) Total() float64 {
	var s float64
	for _, v := range t.data {
		s += v
	}
	return s
}

// AttendanceTotal returns the total count of combinations matching an
// attendance pattern: att[i] = true means worker i+1 responded (index > 0),
// false means the worker did not attempt (index == 0). This is the "number
// of tasks attempted by exactly the set of workers" n in Lemma 9.
func (t *Tensor3) AttendanceTotal(att [3]bool) float64 {
	var s float64
	n := t.k + 1
	for a := 0; a < n; a++ {
		if (a > 0) != att[0] {
			continue
		}
		for b := 0; b < n; b++ {
			if (b > 0) != att[1] {
				continue
			}
			for c := 0; c < n; c++ {
				if (c > 0) != att[2] {
					continue
				}
				s += t.data[(a*n+b)*n+c]
			}
		}
	}
	return s
}

// CountsTensor builds the A3 response-count tensor for the ordered worker
// triple (w1, w2, w3). Tasks attempted by none of the three are not counted
// (their combination (0,0,0) stays zero, matching the paper's preprocessing).
func (d *Dataset) CountsTensor(w1, w2, w3 int) *Tensor3 {
	t3 := NewTensor3(d.arity)
	n := d.arity + 1
	r1, r2, r3 := d.row(w1), d.row(w2), d.row(w3)
	r2, r3 = r2[:len(r1)], r3[:len(r1)]
	for t, a := range r1 {
		b, c := r2[t], r3[t]
		if a == 0 && b == 0 && c == 0 {
			continue
		}
		t3.data[(int(a)*n+int(b))*n+int(c)]++
	}
	return t3
}
