package gate

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
)

// fastDigits is the longest integer the canonical ingest parser reads
// itself: any run of that many decimal digits fits an int, so the parser
// never has to detect overflow.
const fastDigits = 9 + 9*(strconv.IntSize/64)

// minRecordBytes is the length of the shortest canonical response record
// plus its separating comma; it bounds how many records a body can hold.
const minRecordBytes = len(`{"worker":0,"task":0,"answer":0},`)

// readBody reads a request body whole into buf, reusing its capacity.
// size is the declared length, -1 when unknown; a declared length within
// maxBodyBytes presizes the buffer so a well-described body is read
// without regrowing it.
func readBody(buf []byte, r io.Reader, size int64) ([]byte, error) {
	b := buf[:0]
	if size >= 0 && size <= maxBodyBytes {
		b = slices.Grow(b, int(size)+1) // room for the read that reports EOF
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if errors.Is(err, io.EOF) {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeIngest decodes a POST /v1/responses:batch body into req. Bodies
// in the canonical form
//
//	{"responses":[{"worker":N,"task":N,"answer":N},…]}
//
// (those keys in that order, JSON whitespace anywhere between tokens,
// integers of at most fastDigits digits without a leading zero, fraction
// or exponent) are parsed directly. Every other body goes to
// encoding/json, so the result — the decoded request or the error — is
// always exactly what json.Decoder.Decode returns for the body, including
// ignoring whatever follows the first JSON value.
func decodeIngest(body []byte, req *IngestRequest) error {
	if recs, ok := parseCanonicalIngest(body); ok {
		req.Responses = recs
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// parseCanonicalIngest parses a canonical ingest body, reporting false
// for anything else (the caller then defers to encoding/json).
func parseCanonicalIngest(body []byte) ([]ResponseRec, bool) {
	p := ingestParser{b: body}
	if !p.lit(`{`) || !p.lit(`"responses"`) || !p.lit(`:`) || !p.lit(`[`) {
		return nil, false
	}
	recs := make([]ResponseRec, 0, min(bytes.Count(body, []byte{'}'}), len(body)/minRecordBytes+1))
	if p.peek() != ']' {
		for {
			var rec ResponseRec
			ok := p.lit(`{`) &&
				p.lit(`"worker"`) && p.lit(`:`) && p.int(&rec.Worker) && p.lit(`,`) &&
				p.lit(`"task"`) && p.lit(`:`) && p.int(&rec.Task) && p.lit(`,`) &&
				p.lit(`"answer"`) && p.lit(`:`) && p.int(&rec.Answer) && p.lit(`}`)
			if !ok {
				return nil, false
			}
			recs = append(recs, rec)
			if p.peek() != ',' {
				break
			}
			p.i++
		}
	}
	if !p.lit(`]`) || !p.lit(`}`) {
		return nil, false
	}
	return recs, true
}

// ingestParser is a cursor over a canonical ingest body.
type ingestParser struct {
	b []byte
	i int
}

// skipSpace advances past JSON whitespace.
func (p *ingestParser) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte, or 0 at the end.
func (p *ingestParser) peek() byte {
	p.skipSpace()
	if p.i == len(p.b) {
		return 0
	}
	return p.b[p.i]
}

// lit consumes s after optional whitespace, reporting whether it was
// there.
func (p *ingestParser) lit(s string) bool {
	p.skipSpace()
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// int consumes an optionally negative integer of 1 to fastDigits digits
// with no leading zero, reporting whether it was there. A fraction or
// exponent after it fails the caller's next literal.
func (p *ingestParser) int(dst *int) bool {
	p.skipSpace()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start, n := p.i, 0
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		n = n*10 + int(p.b[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > fastDigits || (digits > 1 && p.b[start] == '0') {
		return false
	}
	if neg {
		n = -n
	}
	*dst = n
	return true
}
