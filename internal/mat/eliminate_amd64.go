package mat

import "crowdassess/internal/cpufeat"

// eliminateAVX2 is eliminateGo in assembly, four tail elements per
// vector: per row one VDIVSD for the multiplier, then per element a
// VMULPD and a VSUBPD, never a fused multiply-add, so every element gets
// the Go loop's two roundings. It needs AVX2, and a of n×n elements with
// col < n.
//
//go:noescape
func eliminateAVX2(a []float64, n, col int)

// kernelTail is the shortest pivot-row tail eliminate hands the kernel:
// below it the call costs more than the vectors save, and BenchmarkLUFactor
// at l = 8 (every tail below 8) ran the kernel slower than the Go loop.
const kernelTail = 8

// eliminate runs eliminateAVX2 when the CPU has AVX2 and the pivot row's
// tail has at least kernelTail elements, else the Go loop.
func eliminate(a []float64, n, col int) {
	if !cpufeat.AVX2 || n-col-1 < kernelTail {
		eliminateGo(a, n, col)
		return
	}
	if col < 0 || col >= n || len(a) < n*n {
		panic(ErrShape)
	}
	eliminateAVX2(a, n, col)
}
