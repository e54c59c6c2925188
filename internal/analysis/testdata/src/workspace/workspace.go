// Package workspace is an analyzer fixture for the pooled-arena
// discipline. It imports the real crowdassess/internal/mat package, so
// the fixture type-checks against the live Workspace API and signature
// drift breaks this test instead of silently blinding the analyzer.
package workspace

import (
	"sync"

	"crowdassess/internal/mat"
)

var pool = sync.Pool{New: func() any { return mat.NewWorkspace() }}

var sink []float64

// good is the canonical idiom: defer { Reset; Put }, nothing escapes.
func good(n int) float64 {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	return v[0]
}

func noDefer(n int) {
	ws := pool.Get().(*mat.Workspace) // want "workspace: pooled workspace ws is not returned via defer"
	v := ws.GetVec(n)
	v[0] = 1
}

func noReset(n int) {
	ws := pool.Get().(*mat.Workspace) // want "workspace: pooled workspace ws is returned without Reset"
	defer pool.Put(ws)
	v := ws.GetVec(n)
	v[0] = 1
}

func noPut(n int) {
	ws := pool.Get().(*mat.Workspace) // want "workspace: pooled workspace ws is Reset in a defer but never returned to its pool"
	defer ws.Reset()
	v := ws.GetVec(n)
	v[0] = 1
}

func plainPut(n int) {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	v[0] = 1
	pool.Put(ws) // want "workspace: pooled workspace ws returned with a plain Put"
}

func escapeReturn(n int) []float64 {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	return v // want "workspace: arena-backed value escapes via return"
}

func escapeGlobal(n int) {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	sink = v // want "workspace: arena-backed value stored in package-level sink"
}

type holder struct{ buf []float64 }

func escapeField(h *holder, n int) {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	h.buf = v // want "workspace: arena-backed value stored in a field"
}

func escapeChannel(ch chan []float64, n int) {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	ch <- v // want "workspace: arena-backed value sent on a channel"
}

func escapeGoroutine(n int) {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	go func() {
		v[0] = 1 // want "workspace: arena-backed v captured by a goroutine"
	}()
}

type bitsetHolder struct{ words []uint64 }

func escapeWordsField(h *bitsetHolder, n int) {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	row := ws.GetWords(n)[:n/2]
	h.words = row // want "workspace: arena-backed value stored in a field"
}

func escapeWordsReturn(n int) []uint64 {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	return ws.GetWords(n) // want "workspace: arena-backed value escapes via return"
}

// firstWord reads only a scalar out of the word scratch, which is fine.
func firstWord(n int) uint64 {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	words := ws.GetWords(n)
	return words[0]
}

// copyOut is the sanctioned way to keep results: copy out of the arena
// before it is recycled.
func copyOut(n int) []float64 {
	ws := pool.Get().(*mat.Workspace)
	defer func() {
		ws.Reset()
		pool.Put(ws)
	}()
	v := ws.GetVec(n)
	out := make([]float64, n)
	copy(out, v)
	return out
}
