package mat

import "crowdassess/internal/cpufeat"

// eliminateKernel runs the assembly kernel itself where the CPU has AVX2,
// so the tests reach it at every tail length, below kernelTail too.
func eliminateKernel(a []float64, n, col int) {
	if !cpufeat.AVX2 {
		eliminateGo(a, n, col)
		return
	}
	eliminateAVX2(a, n, col)
}
