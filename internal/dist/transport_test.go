package dist

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestOversizedSnapshotFrameRoundTrips: compact state-transfer frames
// (msgCompact, msgRestoreCompact) may exceed the ordinary 64 MiB frame cap
// — a long-horizon node's bitsets must still move over the wire — and the
// receiver reassembles them chunk by chunk, byte-exact.
func TestOversizedSnapshotFrameRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("moves >64 MiB through an in-process pipe")
	}
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	body := make([]byte, maxFrame+maxFrame/2) // 96 MiB: over maxFrame, well under maxSnapFrame
	for i := range body {
		body[i] = byte(i * 2654435761)
	}
	sendErr := make(chan error, 1)
	go func() { sendErr <- a.send(msgCompact, body) }()
	msgType, got, err := b.recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if msgType != msgCompact {
		t.Fatalf("got message 0x%02x, want msgCompact", msgType)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("oversized frame corrupted in transit")
	}
}

// TestOversizedOrdinaryFrameRejected: only state-transfer types may use
// the large cap. The sender refuses locally; a receiver facing a lying
// length prefix rejects after the type byte, before reading the body.
func TestOversizedOrdinaryFrameRejected(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	big := make([]byte, maxFrame) // +1 for the type byte pushes past the cap
	if err := a.send(msgIngest, big); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized ordinary send: %v, want errFrameTooBig", err)
	}
	// Forge the header of an oversized ingest frame; recv must reject on
	// the type byte without waiting for (or allocating) the claimed body.
	go func() {
		hdr := []byte{0x10, 0x00, 0x00, 0x01, msgIngest} // claims a 256 MiB ingest frame
		a.bw.Write(hdr)
		a.bw.Flush()
	}()
	_, _, err := b.recv()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("forged oversized ingest frame: %v", err)
	}
}
