package dist

import (
	"fmt"

	"crowdassess/internal/core"
)

// This file is the wire form of the delta statistics pull (msgPullDelta):
// the coordinator's cursor, and the worker's reply — a sparse CSDL delta,
// either from the state the cursor names or, in a reset, from the empty
// state, with the digest of the state the worker holds after the reply.
// Like the rest of the codec it is canonical: a payload that decodes
// re-encodes to the very same bytes, so replicas can still be
// byte-compared on every pull.

// deltaCodecVersion versions the sparse delta payload independently of
// the protocol. Deltas are never persisted, so a layout change bumps both
// this and ProtocolVersion; decoders accept exactly one version.
const deltaCodecVersion = 1

// deltaMagic brands a delta payload ("CrowdStats DeLta").
var deltaMagic = [4]byte{'C', 'S', 'D', 'L'}

// Pull reply kinds: the first byte of a msgDelta body, followed by the
// digest and an encodeDelta payload.
const (
	pullReset byte = 0 // the delta from the empty state
	pullDelta byte = 1 // the delta from the state the cursor names
)

// noCursor is the cursor of a coordinator holding no state for the slice;
// a worker always answers it with a reset.
const noCursor = 0

// encodeCursor serializes a pull request: the 64-bit digest of the slice
// state the coordinator last merged.
func encodeCursor(cursor uint64) []byte { return appendU64le(nil, cursor) }

func decodeCursor(b []byte) (uint64, error) {
	r := &wireReader{buf: b}
	cursor, err := r.u64le("cursor")
	if err != nil {
		return 0, err
	}
	return cursor, r.done()
}

// encodePullReply answers a pull with one statistics cut: its kind, the
// digest of the worker's state after the cut, and its delta.
func encodePullReply(cut core.StatsCut) ([]byte, error) {
	kind := pullDelta
	if cut.Reset {
		kind = pullReset
	}
	d := cut.Delta
	buf := make([]byte, 0, 32+6*len(d.Cells)+12*len(d.Words))
	buf = append(buf, kind)
	buf = appendU64le(buf, cut.Digest)
	return appendDelta(buf, d)
}

func decodePullReply(b []byte) (core.StatsCut, error) {
	r := &wireReader{buf: b}
	var cut core.StatsCut
	kind, err := r.byte("pull reply kind")
	if err != nil {
		return cut, err
	}
	if cut.Digest, err = r.u64le("state digest"); err != nil {
		return cut, err
	}
	if kind != pullReset && kind != pullDelta {
		return cut, fmt.Errorf("%w: unknown pull reply kind %d", ErrCodec, kind)
	}
	cut.Reset = kind == pullReset
	cut.Delta, err = decodeDelta(b[r.off:])
	return cut, err
}

// encodeDelta serializes a delta in the versioned canonical form: magic,
// codec version, dimensions and the newer state's totals, then the grown
// counter pairs (i, j, agree increment, common increment) and the gained
// attendance words (worker, word index, bits), each list in its strictly
// ascending order. Deltas failing core's Validate are refused.
func encodeDelta(d *core.StatsDelta) ([]byte, error) {
	return appendDelta(make([]byte, 0, 32+6*len(d.Cells)+12*len(d.Words)), d)
}

func appendDelta(buf []byte, d *core.StatsDelta) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dist: encoding delta: %w", err)
	}
	buf = append(buf, deltaMagic[:]...)
	buf = appendUvarint(buf, deltaCodecVersion)
	buf = appendUvarint(buf, uint64(d.Workers))
	buf = appendUvarint(buf, uint64(d.Tasks))
	buf = appendUvarint(buf, uint64(d.Responses))
	buf = appendUvarint(buf, uint64(len(d.Cells)))
	for _, c := range d.Cells {
		buf = appendUvarint(buf, uint64(c.I))
		buf = appendUvarint(buf, uint64(c.J))
		buf = appendUvarint(buf, uint64(c.Agree))
		buf = appendUvarint(buf, uint64(c.Common))
	}
	buf = appendUvarint(buf, uint64(len(d.Words)))
	for _, w := range d.Words {
		buf = appendUvarint(buf, uint64(w.Worker))
		buf = appendUvarint(buf, uint64(w.Index))
		buf = appendU64le(buf, w.Bits)
	}
	return buf, nil
}

// decodeDelta parses a delta payload. Malformed input of any kind —
// truncation, bad magic or version, cells off the upper triangle, out of
// order or repeated, zero or inconsistent increments, words of unknown
// workers or past the task horizon, trailing bytes — yields an error
// wrapping ErrCodec, never a panic. Every allocation is bounded by the
// payload's length.
func decodeDelta(b []byte) (*core.StatsDelta, error) {
	r := &wireReader{buf: b}
	magic, err := r.bytes(4, "magic")
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != deltaMagic {
		return nil, fmt.Errorf("%w: bad delta magic %q", ErrCodec, magic)
	}
	version, err := r.uvarint("delta codec version")
	if err != nil {
		return nil, err
	}
	if version != deltaCodecVersion {
		return nil, fmt.Errorf("%w: unsupported delta codec version %d (have %d)", ErrCodec, version, deltaCodecVersion)
	}
	d := &core.StatsDelta{}
	if d.Workers, err = r.count("worker count", maxStatsWorkers); err != nil {
		return nil, err
	}
	if d.Tasks, err = r.count("task horizon", maxCounter); err != nil {
		return nil, err
	}
	if d.Responses, err = r.count("response total", maxCounter); err != nil {
		return nil, err
	}
	// A cell takes at least four bytes, a word at least ten.
	cells, err := r.count("cell count", uint64(r.rest()/4))
	if err != nil {
		return nil, err
	}
	d.Cells = make([]core.CellDelta, cells)
	for k := range d.Cells {
		c := &d.Cells[k]
		if c.I, err = r.count("cell row", maxStatsWorkers); err != nil {
			return nil, err
		}
		if c.J, err = r.count("cell column", maxStatsWorkers); err != nil {
			return nil, err
		}
		if c.Agree, err = r.count("agree increment", maxCounter); err != nil {
			return nil, err
		}
		if c.Common, err = r.count("common increment", maxCounter); err != nil {
			return nil, err
		}
	}
	words, err := r.count("word count", uint64(r.rest()/10))
	if err != nil {
		return nil, err
	}
	d.Words = make([]core.WordDelta, words)
	for k := range d.Words {
		w := &d.Words[k]
		if w.Worker, err = r.count("word worker", maxStatsWorkers); err != nil {
			return nil, err
		}
		if w.Index, err = r.count("word index", maxCounter/64); err != nil {
			return nil, err
		}
		if w.Bits, err = r.u64le("word bits"); err != nil {
			return nil, err
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCodec, err)
	}
	return d, nil
}
