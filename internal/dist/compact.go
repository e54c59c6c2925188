package dist

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"

	"crowdassess/internal/core"
)

// The compact checkpoint payload is the one state-transfer format: it
// carries a core.CompactState — the full pairwise statistics plus each
// worker's answer bitset, never a response log. Its size is
// O(workers² + workers·tasks/64), flat in how many responses were ever
// ingested, which is what makes the WAL engine's periodic snapshots O(delta)
// rather than O(history), and a survivor reseed O(statistics) rather than
// O(responses).
//
// The payload is canonical and carries no node identity: equal state always
// encodes to equal bytes, so a broadcast pull can byte-compare replicas'
// compact checkpoints and extend the divergence check to the answer bitsets
// for free.

// snapCRC is the checksum table for compact payloads.
var snapCRC = crc64.MakeTable(crc64.ECMA)

// compactVersion versions the compact payload independently of the
// protocol, like statsCodecVersion does for plain exports.
const compactVersion = 1

// compactMagic brands a compact checkpoint payload ("CrowdCoMPact").
var compactMagic = [4]byte{'C', 'C', 'M', 'P'}

// EncodeCompact serializes a compact checkpoint: magic, version, the
// canonical statistics payload (EncodeStats), each worker's answer bitset
// in the same trailing-zero-trimmed form the attendance bitsets use, and a
// CRC-64 trailer over everything before it.
func EncodeCompact(cs *core.CompactState) ([]byte, error) {
	if cs == nil || cs.Stats == nil {
		return nil, fmt.Errorf("dist: nil compact state")
	}
	if len(cs.Answers) != cs.Stats.Workers {
		return nil, fmt.Errorf("dist: compact state has %d answer rows for %d workers", len(cs.Answers), cs.Stats.Workers)
	}
	stats, err := EncodeStats(cs.Stats)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 32+len(stats)+9*len(cs.Answers))
	buf = append(buf, compactMagic[:]...)
	buf = appendUvarint(buf, compactVersion)
	buf = appendUvarint(buf, uint64(len(stats)))
	buf = append(buf, stats...)
	for _, words := range cs.Answers {
		n := len(words)
		for n > 0 && words[n-1] == 0 {
			n--
		}
		buf = appendUvarint(buf, uint64(n))
		for _, word := range words[:n] {
			buf = appendU64le(buf, word)
		}
	}
	return appendU64le(buf, crc64.Checksum(buf, snapCRC)), nil
}

// DecodeCompact parses a compact checkpoint payload. It verifies framing —
// CRC, magic, version, canonical bitsets, no trailing bytes — and the row
// shape; the statistical consistency of the state (counters versus
// bitsets) is the restorer's job (core validates on RestoreCompact).
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
	if version != compactVersion {
		return nil, fmt.Errorf("%w: unsupported compact version %d (have %d)", ErrCodec, version, compactVersion)
	}
	statsLen, err := r.count("stats payload length", uint64(r.rest()))
	if err != nil {
		return nil, err
	}
	statsBytes, err := r.bytes(statsLen, "stats payload")
	if err != nil {
		return nil, err
	}
	stats, err := DecodeStats(statsBytes)
	if err != nil {
		return nil, err
	}
	answers := make([][]uint64, stats.Workers)
	for i := range answers {
		words, err := r.count("answer bitset length", uint64(r.rest()/8))
		if err != nil {
			return nil, err
		}
		answers[i] = make([]uint64, words)
		for k := 0; k < words; k++ {
			if answers[i][k], err = r.u64le("answer bitset word"); err != nil {
				return nil, err
			}
		}
		if words > 0 && answers[i][words-1] == 0 {
			return nil, fmt.Errorf("%w: non-canonical answer bitset for worker %d (trailing zero word)", ErrCodec, i)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &core.CompactState{Stats: stats, Answers: answers}, nil
}
