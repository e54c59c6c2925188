//go:build !amd64

package core

// countRow is the Go loop on every GOARCH without the assembly kernel.
func countRow(block []uint64, words, half, k1, from int, counts []int) {
	countRowGo(block, words, half, k1, from, counts)
}

// entryRow is the Go loop on every GOARCH without the assembly kernel.
func entryRow(out []float64, counts, tri []int, grad []float64, agreeA, commonA, agreeB, commonB []int, half, from, cia, cib int, da, db, pI float64) {
	entryRowGo(out, counts, tri, grad, agreeA, commonA, agreeB, commonB, half, from, cia, cib, da, db, pI)
}
