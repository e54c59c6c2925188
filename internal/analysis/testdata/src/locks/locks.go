// Package locks is an analyzer fixture for lock hygiene: deferred or
// every-path unlocks pass, leaky paths and guard-ordered acquisition
// fail.
package locks

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// good: the canonical defer pairing.
func good(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// everyPath: no defer, but each return path unlocks first.
func everyPath(c *counter) int {
	c.mu.Lock()
	if c.n > 0 {
		v := c.n
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	return 0
}

// leak: the early return path exits with the mutex held.
func leak(c *counter) int {
	c.mu.Lock() // want "locks: c.mu.Lock has no defer Unlock"
	if c.n > 0 {
		return c.n
	}
	c.mu.Unlock()
	return 0
}

type table struct {
	mu sync.RWMutex
	m  map[string]int
}

// readLeak: an RLock with no unlock on the return path.
func readLeak(t *table, k string) int {
	t.mu.RLock() // want "locks: t.mu.RLock has no defer RUnlock"
	v := t.m[k]
	return v
}

// readOK: positional RUnlock before the only return.
func readOK(t *table, k string) int {
	t.mu.RLock()
	v := t.m[k]
	t.mu.RUnlock()
	return v
}

// fallOff: the implicit return at the closing brace is a path too.
func fallOff(c *counter) {
	c.mu.Lock() // want "locks: c.mu.Lock has no defer Unlock"
	c.n++
}

// slice and node mirror the cluster's fine-grained lock carriers; the
// documented order takes their locks first, never under a guard mutex.
type slice struct {
	mu sync.Mutex
}

type node struct {
	mu sync.Mutex
}

type coord struct {
	monitorMu sync.Mutex
	slices    []*slice
	peer      *node
}

// badOrder acquires a slice lock while holding monitorMu.
func badOrder(c *coord) {
	c.monitorMu.Lock()
	defer c.monitorMu.Unlock()
	for _, s := range c.slices {
		s.mu.Lock() // want "locks: slice lock acquired while holding c.monitorMu"
		s.mu.Unlock()
	}
}

// badLeaf acquires a node lock while holding monitorMu, released
// without a defer.
func badLeaf(c *coord) {
	c.monitorMu.Lock()
	c.peer.mu.Lock() // want "locks: node lock acquired while holding c.monitorMu"
	c.peer.mu.Unlock()
	c.monitorMu.Unlock()
}

// goodOrder releases the guard before touching fine-grained locks.
func goodOrder(c *coord) {
	c.monitorMu.Lock()
	n := len(c.slices)
	c.monitorMu.Unlock()
	for i := 0; i < n; i++ {
		s := c.slices[i]
		s.mu.Lock()
		s.mu.Unlock()
	}
}
