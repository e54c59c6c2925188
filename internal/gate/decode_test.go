package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// canonicalIngestBodies are bodies parseCanonicalIngest must accept.
var canonicalIngestBodies = []string{
	`{"responses":[]}`,
	`{"responses":[{"worker":0,"task":17,"answer":1}]}`,
	`{"responses":[{"worker":0,"task":17,"answer":1},{"worker":3,"task":17,"answer":2}]}`,
	" \t\r\n{ \"responses\" : [ { \"worker\" : 1 , \"task\" : 2 , \"answer\" : 1 } , {\"worker\":2,\"task\":2,\"answer\":2}\n] }\n",
	"{\"responses\": [\n  {\"worker\": 0, \"task\": 17, \"answer\": 1},\n  {\"worker\": 3, \"task\": 17, \"answer\": 2}\n]}",
	`{"responses":[{"worker":-0,"task":-5,"answer":-12}]}`,
	`{"responses":[{"worker":999999999999999999,"task":-999999999999999999,"answer":0}]}`,
	`{"responses":[{"worker":1,"task":2,"answer":1}]}trailing bytes are ignored`,
	`{"responses":[{"worker":1,"task":2,"answer":1}]}{"responses":[]}`,
	`{"responses":[{"worker":0,"task":5,"answer":1},{"worker":1,"task":5,"answer":1},{"worker":0,"task":5,"answer":2}]}`,
}

// otherIngestBodies are bodies parseCanonicalIngest must leave to
// encoding/json: valid JSON in another form, and malformed input.
var otherIngestBodies = []string{
	``,
	`   `,
	`null`,
	`[]`,
	`{}`,
	`{"responses":null}`,
	`{"responses":[null]}`,
	`{"responses":[{}]}`,
	`{"responses":[{"task":2,"worker":1,"answer":1}]}`,
	`{"responses":[{"worker":1,"task":2,"answer":1,"worker":3}]}`,
	`{"responses":[{"worker":1,"task":2}]}`,
	`{"responses":[{"Worker":1,"TASK":2,"answer":1}]}`,
	`{"Responses":[{"worker":1,"task":2,"answer":1}]}`,
	`{"responses":[{"w\u006frker":1,"task":2,"answer":1}]}`,
	`{"re\u0073ponses":[]}`,
	`{"responses":[{"worker":1,"task":2,"answer":1,"note":"x"}]}`,
	`{"responses":[{"worker":1,"task":2,"answer":1}],"extra":true}`,
	`{"responses":[{"worker":1,"task":2,"answer":1}],"responses":[]}`,
	`{"responses":[{"worker":01,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1e2,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1E2,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1.0,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1.5,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":-,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":- 1,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":+1,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":"1","task":2,"answer":1}]}`,
	`{"responses":[{"worker":true,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1000000000000000000,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":9223372036854775807,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":9223372036854775808,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":-9223372036854775809,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":123456789012345678901234567890,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1,"task":2,"answer":1},]}`,
	`{"responses":[,{"worker":1,"task":2,"answer":1}]}`,
	`{"responses":[{"worker":1,"task":2,"answer":1}`,
	`{"responses":[{"worker":1,"task":2,"answer":1}]`,
	`{"responses":[{"worker":1,"task":2,"ans`,
	`{"responses":[{"worker":1`,
	`{"responses"`,
	`{`,
	"\ufeff{\"responses\":[]}",
	"{\"responses\":[{\"worker\":1,\"task\":2,\"answer\":1}\v]}",
	`{"responses":[{"worker":1,"task":2,"answer":1}]]`,
	`{"responses":[{"worker":1 2,"task":2,"answer":1}]}`,
	`{"responses" "x"}`,
}

// sameDecode reports how decodeIngest's result differs from
// encoding/json's on body, or "" when they agree: the same request (a nil
// and an empty slice count alike) or the same error text.
func sameDecode(body []byte) string {
	var got, want IngestRequest
	gotErr := decodeIngest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, encoding/json %v", gotErr, wantErr)
		}
	case len(got.Responses) != len(want.Responses):
		return fmt.Sprintf("%d responses, encoding/json %d", len(got.Responses), len(want.Responses))
	default:
		for i := range got.Responses {
			if got.Responses[i] != want.Responses[i] {
				return fmt.Sprintf("responses[%d] = %+v, encoding/json %+v", i, got.Responses[i], want.Responses[i])
			}
		}
	}
	return ""
}

func TestDecodeIngestPaths(t *testing.T) {
	for _, body := range canonicalIngestBodies {
		if _, ok := parseCanonicalIngest([]byte(body)); !ok {
			t.Errorf("canonical body %q took the encoding/json path", body)
		}
		if diff := sameDecode([]byte(body)); diff != "" {
			t.Errorf("%q: %s", body, diff)
		}
	}
	for _, body := range otherIngestBodies {
		if _, ok := parseCanonicalIngest([]byte(body)); ok {
			t.Errorf("non-canonical body %q took the canonical path", body)
		}
		if diff := sameDecode([]byte(body)); diff != "" {
			t.Errorf("%q: %s", body, diff)
		}
	}
}

// FuzzDecodeIngest checks decodeIngest against encoding/json on arbitrary
// bytes.
func FuzzDecodeIngest(f *testing.F) {
	for _, body := range canonicalIngestBodies {
		f.Add([]byte(body))
	}
	for _, body := range otherIngestBodies {
		f.Add([]byte(body))
	}
	f.Add(ingestBody(4))
	f.Fuzz(func(t *testing.T, body []byte) {
		if diff := sameDecode(body); diff != "" {
			t.Fatalf("%q: %s", body, diff)
		}
	})
}

// ingestBody returns a canonical body of n responses with the varied
// integer widths of a live stream.
func ingestBody(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"responses":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"worker":%d,"task":%d,"answer":%d}`, i%64, 100000+i*7919%50000, 1+i%2)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

func BenchmarkDecodeIngest(b *testing.B) {
	body := ingestBody(256)
	for _, bc := range []struct {
		name   string
		decode func([]byte, *IngestRequest) error
	}{
		{"std", func(body []byte, req *IngestRequest) error {
			return json.NewDecoder(bytes.NewReader(body)).Decode(req)
		}},
		{"fast", decodeIngest},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req IngestRequest
				if err := bc.decode(body, &req); err != nil || len(req.Responses) != 256 {
					b.Fatalf("decoded %d responses, err %v", len(req.Responses), err)
				}
			}
		})
	}
}
