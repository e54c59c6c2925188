//go:build !amd64

package mat

// eliminateKernel is the Go loop on every GOARCH without the kernel.
func eliminateKernel(a []float64, n, col int) {
	eliminateGo(a, n, col)
}
