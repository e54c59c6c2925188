//go:build !amd64

package mat

import "math"

// kernelTail is past every tail: with no kernel, refactor runs each pivot
// column's Go loop directly.
const kernelTail = math.MaxInt

// eliminate is the Go loop on every GOARCH without the assembly kernel.
func eliminate(a []float64, n, col int) {
	eliminateGo(a, n, col)
}
