package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/bits"

	"crowdassess/internal/core"
)

// The compact checkpoint payload is the one state-transfer format: it
// carries a core.CompactState — each worker's attendance and answer
// bitsets plus the digest of the statistics they derive, never a response
// log. Its size is O(workers·tasks/64), flat in how many responses were
// ever ingested, which is what makes the WAL engine's periodic snapshots
// O(delta) rather than O(history), and a survivor reseed O(statistics)
// rather than O(responses).
//
// The payload is canonical and carries no node identity: equal state always
// encodes to equal bytes, so a broadcast pull can byte-compare replicas'
// compact checkpoints and extend the divergence check to the answer bitsets
// for free.

// snapCRC is the checksum table for compact payloads.
var snapCRC = crc64.MakeTable(crc64.ECMA)

// compactVersion versions the compact payload independently of the
// protocol. EncodeCompact writes only this version; DecodeCompact also
// reads version 1, whose snapshots may still be on disk.
const compactVersion = 2

// compactMagic brands a compact checkpoint payload ("CrowdCoMPact").
var compactMagic = [4]byte{'C', 'C', 'M', 'P'}

// EncodeCompact serializes a compact checkpoint: magic, version, the
// statistics digest (u64le), the worker count, each worker's attendance
// bitset, each worker's answer bitset, and a CRC-64 trailer over
// everything before it. A bitset is its word count and its u64le words,
// trailing zero words dropped, so the same state always encodes to the
// same bytes whatever its bitsets' capacity.
func EncodeCompact(cs *core.CompactState) ([]byte, error) {
	if cs == nil {
		return nil, fmt.Errorf("dist: nil compact state")
	}
	if len(cs.Answers) != len(cs.Responded) {
		return nil, fmt.Errorf("dist: compact state has %d answer rows for %d attendance rows", len(cs.Answers), len(cs.Responded))
	}
	size := 32 // header and trailer
	for w := range cs.Responded {
		// Two word counts of up to four varint bytes each, and the words.
		size += 8 + 8*(len(cs.Responded[w])+len(cs.Answers[w]))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, compactMagic[:]...)
	buf = appendUvarint(buf, compactVersion)
	buf = appendU64le(buf, cs.Digest)
	buf = appendUvarint(buf, uint64(len(cs.Responded)))
	buf = appendBitsets(buf, cs.Responded)
	buf = appendBitsets(buf, cs.Answers)
	return appendU64le(buf, crc64.Checksum(buf, snapCRC)), nil
}

// appendBitsets appends each row's word count and words, trailing zero
// words dropped.
func appendBitsets(buf []byte, rows [][]uint64) []byte {
	for _, words := range rows {
		n := len(words)
		for n > 0 && words[n-1] == 0 {
			n--
		}
		buf = appendUvarint(buf, uint64(n))
		for _, word := range words[:n] {
			buf = appendU64le(buf, word)
		}
	}
	return buf
}

// DecodeCompact parses a compact checkpoint payload of version 2, or of
// version 1, which carried the statistics' counters (a CSTA payload)
// instead of their digest. It verifies framing — CRC, magic, version,
// canonical bitsets, no trailing bytes — and the row shape; whether the
// bitsets derive the digest is the restorer's job (core checks it on
// RestoreCompact).
func DecodeCompact(b []byte) (*core.CompactState, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: compact payload of %d bytes", ErrCodec, len(b))
	}
	body, tail := b[:len(b)-8], b[len(b)-8:]
	if binary.LittleEndian.Uint64(tail) != crc64.Checksum(body, snapCRC) {
		return nil, fmt.Errorf("%w: compact payload CRC mismatch", ErrCodec)
	}
	r := &wireReader{buf: body}
	magic, err := r.bytes(4, "compact magic")
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != compactMagic {
		return nil, fmt.Errorf("%w: bad compact magic %q", ErrCodec, magic)
	}
	version, err := r.uvarint("compact version")
	if err != nil {
		return nil, err
	}
	var cs *core.CompactState
	switch version {
	case compactVersion:
		cs, err = decodeCompactBody(r)
	case 1:
		cs, err = decodeCompactV1Body(r)
	default:
		return nil, fmt.Errorf("%w: unsupported compact version %d (have %d)", ErrCodec, version, compactVersion)
	}
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return cs, nil
}

// decodeCompactBody reads what follows a version 2 payload's version.
func decodeCompactBody(r *wireReader) (*core.CompactState, error) {
	digest, err := r.u64le("statistics digest")
	if err != nil {
		return nil, err
	}
	// Each worker's two bitsets take a byte each at least.
	workers, err := r.count("worker count", min(maxStatsWorkers, uint64(r.rest()/2)))
	if err != nil {
		return nil, err
	}
	responded, err := readBitsets(r, workers, "attendance")
	if err != nil {
		return nil, err
	}
	answers, err := readBitsets(r, workers, "answer")
	if err != nil {
		return nil, err
	}
	return &core.CompactState{Responded: responded, Answers: answers, Digest: digest}, nil
}

// decodeCompactV1Body reads what follows a version 1 payload's version:
// the length-prefixed CSTA statistics — magic, version 1, the worker
// count, task horizon and response total, the upper-triangle agree/common
// counter pairs, each worker's attendance bitset — then each worker's
// answer bitset. The counters are folded into the statistics digest as
// they are read, one row at a time, through a reset delta applied to an
// empty accumulator; only the bitsets are kept.
func decodeCompactV1Body(r *wireReader) (*core.CompactState, error) {
	n, err := r.count("stats payload length", uint64(r.rest()))
	if err != nil {
		return nil, err
	}
	statsBytes, err := r.bytes(n, "stats payload")
	if err != nil {
		return nil, err
	}
	s := &wireReader{buf: statsBytes}
	magic, err := s.bytes(4, "stats magic")
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != [4]byte{'C', 'S', 'T', 'A'} {
		return nil, fmt.Errorf("%w: bad stats magic %q", ErrCodec, magic)
	}
	if version, err := s.uvarint("stats codec version"); err != nil {
		return nil, err
	} else if version != 1 {
		return nil, fmt.Errorf("%w: unsupported stats codec version %d (have 1)", ErrCodec, version)
	}
	workers, err := s.count("worker count", maxStatsWorkers)
	if err != nil {
		return nil, err
	}
	d := &core.StatsDelta{Workers: workers}
	if d.Tasks, err = s.count("task count", maxCounter); err != nil {
		return nil, err
	}
	if d.Responses, err = s.count("response count", maxCounter); err != nil {
		return nil, err
	}
	// Each of the workers*(workers-1)/2 pairs takes at least two bytes, so
	// a payload claiming more workers than its length supports is rejected
	// before the accumulator's quadratic counters are allocated.
	if pairs := workers * (workers - 1) / 2; s.rest() < 2*pairs {
		return nil, fmt.Errorf("%w: %d bytes cannot hold %d counter pairs", ErrCodec, s.rest(), pairs)
	}
	acc, err := core.NewStatsAccumulator(workers)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCodec, err)
	}
	for i := 0; i < workers; i++ {
		d.Cells = d.Cells[:0]
		for j := i + 1; j < workers; j++ {
			a, err := s.count("agree counter", maxCounter)
			if err != nil {
				return nil, err
			}
			c, err := s.count("common counter", maxCounter)
			if err != nil {
				return nil, err
			}
			if a > c {
				return nil, fmt.Errorf("%w: agree[%d][%d]=%d exceeds common=%d", ErrCodec, i, j, a, c)
			}
			if c > 0 {
				d.Cells = append(d.Cells, core.CellDelta{I: i, J: j, Agree: a, Common: c})
			}
		}
		if err := acc.ApplyDelta(d); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCodec, err)
		}
	}
	responded, err := readBitsets(s, workers, "attendance")
	if err != nil {
		return nil, err
	}
	if err := s.done(); err != nil {
		return nil, err
	}
	d.Cells = nil
	for w, row := range responded {
		for k, word := range row {
			if word != 0 {
				d.Words = append(d.Words, core.WordDelta{Worker: w, Index: k, Bits: word})
			}
		}
	}
	if err := acc.ApplyDelta(d); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCodec, err)
	}
	if got := acc.Responses(); got != d.Responses {
		return nil, fmt.Errorf("%w: attendance bitsets hold %d responses, statistics claim %d", ErrCodec, got, d.Responses)
	}
	answers, err := readBitsets(r, workers, "answer")
	if err != nil {
		return nil, err
	}
	return &core.CompactState{Responded: responded, Answers: answers, Digest: acc.Digest()}, nil
}

// readBitsets reads n bitsets, each its word count and its u64le words.
// A trailing zero word is refused: it would give one state two encodings.
func readBitsets(r *wireReader, n int, what string) ([][]uint64, error) {
	rows := make([][]uint64, n)
	for i := range rows {
		words, err := r.count("bitset length", uint64(r.rest()/8))
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes(8*words, "bitset words")
		if err != nil {
			return nil, err
		}
		row := make([]uint64, words)
		for k := range row {
			row[k] = binary.LittleEndian.Uint64(raw[8*k:])
		}
		if words > 0 && row[words-1] == 0 {
			return nil, fmt.Errorf("%w: non-canonical %s bitset for worker %d (trailing zero word)", ErrCodec, what, i)
		}
		rows[i] = row
	}
	return rows, nil
}

// compactResponses returns the number of responses a compact state holds:
// the attendance bits set.
func compactResponses(cs *core.CompactState) int {
	n := 0
	for _, row := range cs.Responded {
		for _, word := range row {
			n += bits.OnesCount64(word)
		}
	}
	return n
}
