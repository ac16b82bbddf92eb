package flowwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"halo/internal/flowserve"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Op: OpHello, ReqID: 0},
		{Op: OpDelete, ReqID: 1, Payload: []byte("twenty-byte-key-....")},
		{Op: OpLookupMany, Status: StatusOK, ReqID: 1<<64 - 1, Payload: make([]byte, 4096)},
		{Op: OpStats, Status: StatusErrInternal, ReqID: 7},
	}
	for _, want := range cases {
		buf := AppendFrame(nil, &want)
		var got Frame
		if _, err := ReadFrameInto(bytes.NewReader(buf), 0, &got, nil); err != nil {
			t.Fatalf("ReadFrameInto(%v): %v", want.Op, err)
		}
		if got.Op != want.Op || got.Status != want.Status || got.ReqID != want.ReqID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip mangled frame: got %+v want %+v", got, want)
		}
	}
}

func TestFrameChaining(t *testing.T) {
	var buf []byte
	for i := uint64(0); i < 10; i++ {
		buf = AppendFrame(buf, &Frame{Op: OpLookupMany, ReqID: i, Payload: []byte{byte(i)}})
	}
	r := bytes.NewReader(buf)
	for i := uint64(0); i < 10; i++ {
		var f Frame
		if _, err := ReadFrameInto(r, 0, &f, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.ReqID != i || len(f.Payload) != 1 || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d decoded as %+v", i, f)
		}
	}
	var f Frame
	if _, err := ReadFrameInto(r, 0, &f, nil); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsShortLength(t *testing.T) {
	buf := binary.LittleEndian.AppendUint32(nil, headerRest-1)
	buf = append(buf, make([]byte, headerRest)...)
	var f Frame
	if _, err := ReadFrameInto(bytes.NewReader(buf), 0, &f, nil); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short length = %v, want ErrShortFrame", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	frame := AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 1, Payload: make([]byte, 1024)})
	var f Frame
	if _, err := ReadFrameInto(bytes.NewReader(frame), 256, &f, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame = %v, want ErrFrameTooLarge", err)
	}
	// The same frame passes a roomier limit.
	if _, err := ReadFrameInto(bytes.NewReader(frame), 4096, &f, nil); err != nil {
		t.Fatalf("frame under the limit = %v", err)
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	buf := AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 1})
	buf[4] = Version + 1
	var f Frame
	if _, err := ReadFrameInto(bytes.NewReader(buf), 0, &f, nil); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version = %v, want ErrBadVersion", err)
	}
}

func TestReadFrameRejectsReservedByte(t *testing.T) {
	buf := AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 1})
	buf[7] = 0xff
	var f Frame
	if _, err := ReadFrameInto(bytes.NewReader(buf), 0, &f, nil); !errors.Is(err, ErrBadReserved) {
		t.Fatalf("reserved byte = %v, want ErrBadReserved", err)
	}
}

func TestReadFrameShortRead(t *testing.T) {
	full := AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 9, Payload: make([]byte, 64)})
	for _, cut := range []int{2, lenSize, headerSize - 1, headerSize + 10} {
		var f Frame
		_, err := ReadFrameInto(bytes.NewReader(full[:cut]), 0, &f, nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated at %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// A cut before any byte of the next frame is a clean EOF.
	var f Frame
	if _, err := ReadFrameInto(bytes.NewReader(nil), 0, &f, nil); err != io.EOF {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
}

func TestLookupManyCodec(t *testing.T) {
	keys := [][]byte{
		bytes.Repeat([]byte{1}, 20),
		bytes.Repeat([]byte{2}, 20),
		bytes.Repeat([]byte{3}, 20),
	}
	payload := appendLookupManyReq(nil, keys, 20)
	var parsed [][]byte
	parsed, st := parseLookupManyReq(payload, 20, parsed)
	if st != StatusOK || len(parsed) != 3 {
		t.Fatalf("parse = (%d keys, %v)", len(parsed), st)
	}
	for i := range keys {
		if !bytes.Equal(parsed[i], keys[i]) {
			t.Fatalf("key %d mangled", i)
		}
	}
	if _, st := parseLookupManyReq(payload, 16, nil); st != StatusErrKeyLen {
		t.Fatalf("key-length mismatch = %v, want StatusErrKeyLen", st)
	}
	if _, st := parseLookupManyReq(payload[:len(payload)-5], 20, nil); st != StatusErrMalformed {
		t.Fatalf("truncated body = %v, want StatusErrMalformed", st)
	}
	if _, st := parseLookupManyReq(payload[:3], 20, nil); st != StatusErrMalformed {
		t.Fatalf("truncated header = %v, want StatusErrMalformed", st)
	}
	huge := binary.LittleEndian.AppendUint32(nil, MaxBatchKeys+1)
	huge = binary.LittleEndian.AppendUint16(huge, 20)
	if _, st := parseLookupManyReq(huge, 20, nil); st != StatusErrOversized {
		t.Fatalf("over-count batch = %v, want StatusErrOversized", st)
	}

	want := []flowserve.Result{{Value: 42, OK: true}, {}, {Value: 1 << 63, OK: true}}
	reply := appendLookupManyReply(nil, want)
	got := make([]flowserve.Result, 8)
	n, err := parseLookupManyReply(reply, got, nil)
	if err != nil || n != 3 {
		t.Fatalf("reply parse = (%d, %v)", n, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseLookupManyReply(reply[:len(reply)-1], got, nil); err == nil {
		t.Fatal("truncated reply parsed")
	}

	// Scattered: result j lands at idx[j] and nothing else is written; a
	// reply with more results than idx has entries is refused whole.
	clear(got)
	if n, err := parseLookupManyReply(reply, got, []int{7, 0, 4}); err != nil || n != 3 {
		t.Fatalf("scattered reply parse = (%d, %v)", n, err)
	}
	for i, r := range got {
		wantAt := map[int]flowserve.Result{7: want[0], 0: want[1], 4: want[2]}[i]
		if r != wantAt {
			t.Fatalf("scattered result at %d = %+v, want %+v", i, r, wantAt)
		}
	}
	clear(got)
	if _, err := parseLookupManyReply(reply, got, []int{7, 0}); err == nil || got[7].OK {
		t.Fatalf("3 results parsed through a 2-entry idx (err %v, got[7] %+v)", err, got[7])
	}
}

func TestStatusErrMapping(t *testing.T) {
	if err := StatusOK.Err(OpLookupMany); err != nil {
		t.Fatalf("StatusOK = %v", err)
	}
	if err := StatusErrExists.Err(OpInsert); !errors.Is(err, flowserve.ErrKeyExists) {
		t.Fatalf("ERR_EXISTS = %v, want flowserve.ErrKeyExists", err)
	}
	if err := StatusErrFull.Err(OpInsert); !errors.Is(err, flowserve.ErrTableFull) {
		t.Fatalf("ERR_FULL = %v, want flowserve.ErrTableFull", err)
	}
	if err := StatusErrKeyLen.Err(OpInsert); !errors.Is(err, flowserve.ErrKeyLen) {
		t.Fatalf("ERR_KEYLEN = %v, want flowserve.ErrKeyLen", err)
	}
	var pe *ProtocolError
	if err := StatusErrMalformed.Err(OpLookupMany); !errors.As(err, &pe) || pe.Status != StatusErrMalformed {
		t.Fatalf("ERR_MALFORMED = %v, want *ProtocolError", err)
	}
	// Round trip through statusOf.
	for _, st := range []Status{StatusOK, StatusErrExists, StatusErrFull, StatusErrKeyLen} {
		if got := statusOf(st.Err(OpInsert)); got != st {
			t.Fatalf("statusOf(%v.Err()) = %v", st, got)
		}
	}
}
