//go:build !amd64

package mat

// eliminate is the Go loop on every GOARCH without the assembly kernel.
func eliminate(a []float64, n, col int) {
	eliminateGo(a, n, col)
}
