// Package dist spans the streaming evaluator across processes and
// machines. Workers each own a core.ShardedIncremental over a disjoint
// slice of the task space and ingest responses locally; a coordinator
// pulls per-worker statistics over a small framed protocol, merges
// them through the same addFrom reducer the sharded evaluator uses in
// process, and evaluates once — bit-identical to a single local evaluator
// fed every response. After the first pull of a slice, a pull ships only
// what changed since the previous one (delta.go). The protocol carries
// crowd statistics only; replicate sweeps run in the caller's process
// (eval.RunSweep).
//
// The wire format is a versioned, deterministic binary codec: the same
// statistics always encode to the same bytes, decoding never panics on
// malformed input, and cross-version peers fail the handshake instead of
// misreading frames.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"crowdassess/internal/core"
	"crowdassess/internal/crowd"
)

// ProtocolVersion is negotiated in the handshake; peers with different
// versions refuse to talk rather than guess at frame layouts.
//
// Version history:
//
//	1 — hello/ingest/pullStats/pullTotal/sweep
//	2 — adds pullCounts, pullDis (spammer-screen tallies), pullSnap and
//	    restore (checkpoint state transfer) for fault-tolerant pools
//	3 — adds ping/pong heartbeats for the failure detector; the hello now
//	    carries the node's identity (so membership views name real nodes)
//	    and its incarnation, so a reconnect can tell a network blip (same
//	    process, state intact) from a restart (state lost, needs reseed)
//	4 — adds pullCompact/compact/restoreCompact: O(delta) compact
//	    checkpoint transfer (statistics + answer bitsets, no response log)
//	    for the WAL storage engine's snapshot and reseed paths
//	5 — pullDelta/delta replace pullStats/stats: the request carries the
//	    digest of the slice state the coordinator last merged, and the
//	    worker replies with only what changed since (a CSDL delta) when
//	    that cursor matches the state it last sent, or in full otherwise
//	6 — retires pullSnap/snap/restore (0x0f–0x11): compact state is the
//	    only state transfer, survivor reseeds included
//	7 — retires sweep/sweepOK (0x07, 0x08) and pullTotal (0x0a): the
//	    protocol carries crowd statistics only, and sweeps run locally
//	8 — every delta reply is a CSDL delta: a reset, the delta from the
//	    empty state, replaces the full CSTA reply (kind byte 0), so CSTA
//	    travels only inside CCMP compact state; the coordinator's
//	    handshake also refuses a node of another protocol version
//	9 — compact and restoreCompact carry CCMP version 2: the attendance
//	    and answer bitsets and the statistics digest, no CSTA counters
const ProtocolVersion = 9

// Decode-side sanity caps. They bound what a malformed or hostile frame
// can make the decoder allocate; well-formed traffic never hits them.
const (
	// maxNodeName caps the node-identity string a handshake may carry.
	maxNodeName = 4096
	// maxStatsWorkers caps the crowd size a payload may claim.
	maxStatsWorkers = 1 << 20
	// maxCounter caps any single decoded counter or total.
	maxCounter = 1 << 52
)

// ErrCodec tags every decode failure, so transport code can distinguish
// malformed frames from I/O errors.
var ErrCodec = errors.New("dist: malformed payload")

// wireReader walks a payload with explicit bounds checking; every
// primitive returns an error instead of panicking on truncated input.
type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrCodec, what, r.off)
}

func (r *wireReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.fail("truncated or overflowing varint " + what)
	}
	// Canonical payloads use minimal varints; an n-byte encoding of a value
	// that fits n-1 bytes would give one state two encodings.
	if n > 1 && v>>(7*(n-1)) == 0 {
		return 0, r.fail("overlong varint " + what)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint bounded by max; use for any value that sizes an
// allocation or indexes a slice.
func (r *wireReader) count(what string, max uint64) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > max {
		return 0, fmt.Errorf("%w: %s %d exceeds limit %d", ErrCodec, what, v, max)
	}
	return int(v), nil
}

func (r *wireReader) byte(what string) (byte, error) {
	if r.off >= len(r.buf) {
		return 0, r.fail("truncated byte " + what)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		return nil, r.fail("truncated bytes " + what)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) u64le(what string) (uint64, error) {
	b, err := r.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// rest returns how many bytes remain unread.
func (r *wireReader) rest() int { return len(r.buf) - r.off }

// done errors when payload bytes remain: a canonical encoding has no
// trailing garbage.
func (r *wireReader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.buf)-r.off)
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendU64le(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// helloMsg is the handshake in both directions: the coordinator announces
// its protocol version and crowd size; the worker echoes its own (plus its
// shard count and identity) or refuses.
type helloMsg struct {
	Version int
	Workers int
	Shards  int
	// Name is the peer's free-form identity (a listen address, a replica
	// label). Diagnostic: it labels membership views, never routing.
	Name string
	// Instance is the worker's incarnation: drawn fresh each process start,
	// stable for the process's life. A reconnect that lands on a different
	// incarnation than before reached a restarted (state-empty) node — it
	// must be reseeded, never silently retried against. Zero means the peer
	// does not report one.
	Instance uint64
}

func encodeHello(m helloMsg) []byte {
	name := m.Name
	if len(name) > maxNodeName {
		name = name[:maxNodeName]
	}
	buf := make([]byte, 0, 32+len(name))
	buf = appendUvarint(buf, uint64(m.Version))
	buf = appendUvarint(buf, uint64(m.Workers))
	buf = appendUvarint(buf, uint64(m.Shards))
	buf = appendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = appendU64le(buf, m.Instance)
	return buf
}

func decodeHello(b []byte) (helloMsg, error) {
	r := &wireReader{buf: b}
	var m helloMsg
	var err error
	if m.Version, err = r.count("protocol version", maxCounter); err != nil {
		return m, err
	}
	if m.Workers, err = r.count("crowd size", maxStatsWorkers); err != nil {
		return m, err
	}
	if m.Shards, err = r.count("shard count", maxStatsWorkers); err != nil {
		return m, err
	}
	n, err := r.count("node identity length", maxNodeName)
	if err != nil {
		return m, err
	}
	name, err := r.bytes(n, "node identity")
	if err != nil {
		return m, err
	}
	m.Name = string(name)
	if m.Instance, err = r.u64le("node incarnation"); err != nil {
		return m, err
	}
	return m, r.done()
}

// responseRec is one routed submission inside an ingest batch.
type responseRec struct {
	Worker int
	Task   int
	Answer int
}

func encodeIngest(batch []responseRec) []byte {
	buf := make([]byte, 0, 4+4*len(batch))
	buf = appendUvarint(buf, uint64(len(batch)))
	for _, s := range batch {
		buf = appendUvarint(buf, uint64(s.Worker))
		buf = appendUvarint(buf, uint64(s.Task))
		buf = appendUvarint(buf, uint64(s.Answer))
	}
	return buf
}

// decodeIngest decodes an ingest frame into the batch form a worker
// records with AddBatch.
func decodeIngest(b []byte) ([]core.Response, error) {
	r := &wireReader{buf: b}
	// Each record takes at least three bytes.
	count, err := r.count("ingest count", uint64(r.rest())/3)
	if err != nil {
		return nil, err
	}
	batch := make([]core.Response, count)
	for i := range batch {
		if batch[i].Worker, err = r.count("response worker", maxStatsWorkers); err != nil {
			return nil, err
		}
		if batch[i].Task, err = r.count("response task", maxCounter); err != nil {
			return nil, err
		}
		answer, err := r.count("response answer", maxCounter)
		if err != nil {
			return nil, err
		}
		batch[i].Answer = crowd.Response(answer)
	}
	return batch, r.done()
}

// countsMsg is a node's cheap running totals: the task-index horizon and
// response count. A few bytes per node, so streaming reviews can poll it
// every batch without paying for a statistics pull.
type countsMsg struct {
	Tasks     int
	Responses int
}

func encodeCounts(m countsMsg) []byte {
	buf := make([]byte, 0, 12)
	buf = appendUvarint(buf, uint64(m.Tasks))
	buf = appendUvarint(buf, uint64(m.Responses))
	return buf
}

func decodeCounts(b []byte) (countsMsg, error) {
	r := &wireReader{buf: b}
	var m countsMsg
	var err error
	if m.Tasks, err = r.count("task count", maxCounter); err != nil {
		return m, err
	}
	if m.Responses, err = r.count("response count", maxCounter); err != nil {
		return m, err
	}
	return m, r.done()
}

// encodeTallies serializes the spammer-screen tallies: per worker, tasks
// attempted and tasks disagreeing with the majority. The tallies are
// integers and additive across disjoint task sets, so the coordinator sums
// them per node and the cluster-wide screen is exact.
func encodeTallies(attempted, disagree []int) []byte {
	buf := make([]byte, 0, 4+4*len(attempted))
	buf = appendUvarint(buf, uint64(len(attempted)))
	for i := range attempted {
		buf = appendUvarint(buf, uint64(attempted[i]))
		buf = appendUvarint(buf, uint64(disagree[i]))
	}
	return buf
}

func decodeTallies(b []byte) (attempted, disagree []int, err error) {
	r := &wireReader{buf: b}
	// Each worker's pair takes at least two bytes.
	workers, err := r.count("tally worker count", uint64(r.rest())/2)
	if err != nil {
		return nil, nil, err
	}
	attempted = make([]int, workers)
	disagree = make([]int, workers)
	for i := 0; i < workers; i++ {
		if attempted[i], err = r.count("attempted tally", maxCounter); err != nil {
			return nil, nil, err
		}
		if disagree[i], err = r.count("disagree tally", maxCounter); err != nil {
			return nil, nil, err
		}
		if disagree[i] > attempted[i] {
			return nil, nil, fmt.Errorf("%w: worker %d disagreed on %d of %d attempted tasks", ErrCodec, i, disagree[i], attempted[i])
		}
	}
	return attempted, disagree, r.done()
}

func encodeTotal(total int) []byte {
	return appendUvarint(nil, uint64(total))
}

func decodeTotal(b []byte) (int, error) {
	r := &wireReader{buf: b}
	total, err := r.count("response total", maxCounter)
	if err != nil {
		return 0, err
	}
	return total, r.done()
}
