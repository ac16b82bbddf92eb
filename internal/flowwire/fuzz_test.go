package flowwire

import (
	"bytes"
	"testing"

	"halo/internal/flowserve"
)

// FuzzFrameCodec throws arbitrary bytes at the frame decoder — truncated
// headers, oversized lengths, bad versions, garbage payloads — and checks
// the codec invariants the server and client rely on:
//
//   - ReadFrameInto never panics and never accepts a frame past maxFrame;
//   - an accepted frame re-encodes byte-identically;
//   - decoding into fresh and into reused scratch agree on every input;
//   - the LOOKUP_MANY payload parsers never panic on adversarial payloads
//     and never return more keys/results than the payload can hold.
//
// The wire protocol is transport-agnostic, so these byte-level invariants
// are exactly what both the TCP and unix-socket paths feed on;
// TestMalformedFramesBothTransports pins the per-transport plumbing.
func FuzzFrameCodec(f *testing.F) {
	// Well-formed frames of each op.
	f.Add(lookupFrame(nil, 1, wkey(1)))
	f.Add(AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 2,
		Payload: appendLookupManyReq(nil, [][]byte{wkey(1), wkey(2)}, 20)}))
	f.Add(AppendFrame(nil, &Frame{Op: OpLookupMany, Status: StatusOK, ReqID: 3,
		Payload: appendLookupManyReply(nil, []flowserve.Result{{OK: true, Value: 9}})}))
	f.Add(AppendFrame(nil, &Frame{Op: OpHello, ReqID: 4,
		Payload: appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 2, Capacity: 64})}))
	// Truncated: header cut mid-way, and payload shorter than claimed.
	full := AppendFrame(nil, &Frame{Op: OpInsert, ReqID: 5, Payload: wkey(3)})
	f.Add(full[:7])
	f.Add(full[:len(full)-4])
	// Oversized length prefix.
	f.Add(AppendFrameHeader(nil, OpLookupMany, StatusOK, 6, 1<<30)[:4])
	// Bad version / bad reserved byte.
	bad := lookupFrame(nil, 7, wkey(4))
	bad[4] = Version + 1
	f.Add(append([]byte(nil), bad...))
	bad[4], bad[7] = Version, 0xFF
	f.Add(bad)

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		_, err := ReadFrameInto(bytes.NewReader(data), maxFrame, &fr, nil)
		var fr2 Frame
		scratch := make([]byte, 0, 64)
		_, err2 := ReadFrameInto(bytes.NewReader(data), maxFrame, &fr2, scratch)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("fresh scratch err=%v but reused scratch err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if fr2.Op != fr.Op || fr2.Status != fr.Status || fr2.ReqID != fr.ReqID || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("reused scratch decoded %+v, fresh scratch decoded %+v", fr2, fr)
		}
		if len(fr.Payload) > maxFrame {
			t.Fatalf("accepted %d-byte payload past the %d limit", len(fr.Payload), maxFrame)
		}

		// Round trip: re-encoding the accepted frame reproduces the exact
		// bytes consumed off the stream.
		enc := AppendFrame(nil, &fr)
		if !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", enc, data[:len(enc)])
		}
		var fr3 Frame
		if _, err := ReadFrameInto(bytes.NewReader(enc), maxFrame, &fr3, nil); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}

		// Payload parsers must be total on adversarial input.
		keys, st := parseLookupManyReq(fr.Payload, 20, nil)
		if st == StatusOK && len(keys)*20 > len(fr.Payload) {
			t.Fatalf("parsed %d keys out of %d payload bytes", len(keys), len(fr.Payload))
		}
		results := make([]flowserve.Result, 64)
		if n, err := parseLookupManyReply(fr.Payload, results, nil); err == nil && n*9 > len(fr.Payload) {
			t.Fatalf("parsed %d results out of %d payload bytes", n, len(fr.Payload))
		}
		parseHelloReply(fr.Payload)
	})
}
