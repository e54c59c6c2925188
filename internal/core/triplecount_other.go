//go:build !amd64

package core

// common3Words is the Go loop on every GOARCH without the assembly kernel.
func common3Words(a, b, x, y []uint64) (ax, ay, bx, by int) {
	return common3WordsGo(a, b, x, y)
}

// gatherRow is the Go loop on every GOARCH without the assembly kernel.
func gatherRow(dst, own, other []uint64) {
	gatherRowGo(dst, own, other)
}
