// Package flowwire puts the flowserve runtime on the network: a
// length-prefixed binary protocol over tcp, unix sockets or shared-memory
// rings, a server runtime (cmd/flowserved: ListenEndpoint, then
// Server.Serve) and a pooled pipelined client (DialEndpoint), both speaking
// the same versioned frame format. Every lookup travels as one LOOKUP_MANY frame,
// the wire form of the paper's batched LOOKUP_NB; a blocking single-key
// lookup (LOOKUP_B) is a one-key frame waited on at once. The other ops are
// the mutation and introspection ops a remote table needs. *flowwire.Client
// implements flowserve.Reader and flowserve.Writer, so in-process and remote
// tables are interchangeable behind one serving API (DESIGN.md §9). The
// client runs no goroutine of its own: the caller waiting for a reply reads
// its connection itself, one reader per connection at a time (DESIGN.md §10,
// "Client call lifecycle").
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     length   — bytes that follow this field (12 + payload)
//	4       1     version  — Version (1)
//	5       1     op       — Op code
//	6       1     status   — StatusOK in requests; reply status
//	7       1     reserved — must be zero
//	8       8     reqID    — echoed verbatim in the reply (pipelining)
//	16      ...   payload  — op-specific
//
// Replies carry the request's op and reqID. A non-OK status is a typed
// error reply; its payload is empty. Protocol-level violations (bad
// version, oversized or short frames, unknown op) earn an error reply with
// the best-effort reqID followed by connection close.
package flowwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"halo/internal/flowserve"
)

// Version is the protocol version this package speaks. A server receiving
// any other version answers StatusErrVersion and closes.
const Version = 1

// Frame sizing. The length field counts headerRest plus the payload.
const (
	lenSize    = 4
	headerRest = 12
	headerSize = lenSize + headerRest

	// DefaultMaxFrame bounds accepted frame length (header + payload).
	// A LOOKUP_MANY of 4096 64-byte keys fits with lots of room.
	DefaultMaxFrame = 1 << 20
)

// MaxBatchKeys bounds the key count of one LOOKUP_MANY frame, independent
// of the byte limit.
const MaxBatchKeys = 1 << 16

// Op identifies a request kind.
type Op uint8

// Wire operations. Code 2, once a single-key LOOKUP, is retired and earns
// ERR_OP like any unknown op.
const (
	OpHello      Op = 1 // table geometry handshake
	OpLookupMany Op = 3 // every lookup: a batch (LOOKUP_NB) or one key (LOOKUP_B)
	OpInsert     Op = 4
	OpUpdate     Op = 5
	OpDelete     Op = 6
	OpStats      Op = 7 // server+table stats as a JSON stats.Snapshot

	// Cluster ops (DESIGN.md §13). SHARD_MAP/MAP_UPDATE carry the versioned
	// hash-range→node map; MIG_* drive a live range migration between nodes.
	OpShardMap  Op = 8  // fetch the node's installed shard map
	OpMapUpdate Op = 9  // install a shard map (a bumped epoch cuts over)
	OpMigStart  Op = 10 // losing node: snapshot+stream a range, double-write
	OpMigStatus Op = 11 // migration ledger (snapshot progress, queue counts)
	OpMigApply  Op = 12 // gaining node: apply a batch of migrated records
)

func (o Op) String() string {
	switch o {
	case OpHello:
		return "HELLO"
	case OpLookupMany:
		return "LOOKUP_MANY"
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpStats:
		return "STATS"
	case OpShardMap:
		return "SHARD_MAP"
	case OpMapUpdate:
		return "MAP_UPDATE"
	case OpMigStart:
		return "MIG_START"
	case OpMigStatus:
		return "MIG_STATUS"
	case OpMigApply:
		return "MIG_APPLY"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is a reply's outcome code.
type Status uint8

// Reply status codes. Codes ≤ StatusErrFull map onto flowserve error
// semantics; the rest are protocol-level. Code 8 is retired and never sent.
const (
	StatusOK           Status = 0
	StatusErrKeyLen    Status = 1 // key length does not match the table
	StatusErrExists    Status = 2 // INSERT of a present key
	StatusErrFull      Status = 3 // shard displacement path exhausted
	StatusErrMalformed Status = 4 // unparseable frame or payload
	StatusErrVersion   Status = 5 // unsupported protocol version
	StatusErrOp        Status = 6 // unknown op code
	StatusErrOversized Status = 7 // frame exceeds the server's limit
	StatusErrInternal  Status = 9
	// StatusErrWrongShard is the redirect reply: this node does not own the
	// key's hash range under its installed shard map. The payload carries
	// the node's 8-byte LE map epoch so the router knows whether its own map
	// is stale (refetch) or the node's is (retry elsewhere). Unlike every
	// other error status, the payload is non-empty.
	StatusErrWrongShard Status = 10
	// StatusErrCluster reports a cluster/migration admin op that cannot be
	// honored (migration already running, bad shard map, not a cluster
	// node).
	StatusErrCluster Status = 11
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusErrKeyLen:
		return "ERR_KEYLEN"
	case StatusErrExists:
		return "ERR_EXISTS"
	case StatusErrFull:
		return "ERR_FULL"
	case StatusErrMalformed:
		return "ERR_MALFORMED"
	case StatusErrVersion:
		return "ERR_VERSION"
	case StatusErrOp:
		return "ERR_OP"
	case StatusErrOversized:
		return "ERR_OVERSIZED"
	case StatusErrInternal:
		return "ERR_INTERNAL"
	case StatusErrWrongShard:
		return "ERR_WRONG_SHARD"
	case StatusErrCluster:
		return "ERR_CLUSTER"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// ProtocolError is a non-OK reply status that has no flowserve equivalent.
type ProtocolError struct {
	Status Status
	Op     Op
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("flowwire: %s reply to %s", e.Status, e.Op)
}

// Err maps a reply status onto the error vocabulary callers already know:
// table-semantics statuses become the flowserve errors, protocol statuses
// a *ProtocolError, StatusOK nil.
func (s Status) Err(op Op) error {
	switch s {
	case StatusOK:
		return nil
	case StatusErrKeyLen:
		return flowserve.ErrKeyLen
	case StatusErrExists:
		return flowserve.ErrKeyExists
	case StatusErrFull:
		return flowserve.ErrTableFull
	}
	return &ProtocolError{Status: s, Op: op}
}

// statusOf maps a flowserve mutation error to its wire status.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, flowserve.ErrKeyExists):
		return StatusErrExists
	case errors.Is(err, flowserve.ErrTableFull):
		return StatusErrFull
	case errors.Is(err, flowserve.ErrKeyLen):
		return StatusErrKeyLen
	}
	return StatusErrInternal
}

// Frame is one decoded protocol frame.
type Frame struct {
	Op      Op
	Status  Status
	ReqID   uint64
	Payload []byte

	// hdr is the header read scratch. A stack array would escape through
	// the io.Reader interface call and cost one heap allocation per frame;
	// frames on the hot paths are long-lived, so reading into the frame's
	// own storage keeps ReadFrameHeader allocation-free.
	hdr [headerSize]byte
}

// Frame-read errors. ErrFrameTooLarge and ErrBadVersion carry enough for
// the server to send the matching typed error reply before closing.
var (
	ErrFrameTooLarge = errors.New("flowwire: frame exceeds size limit")
	ErrShortFrame    = errors.New("flowwire: frame shorter than header")
	ErrBadVersion    = errors.New("flowwire: unsupported protocol version")
	ErrBadReserved   = errors.New("flowwire: nonzero reserved header byte")
)

// AppendFrameHeader encodes the 16-byte header of a frame whose payloadLen
// payload bytes the caller appends next. Splitting the header from the
// payload lets hot paths build replies directly into one reused buffer —
// header, then payload — with no intermediate payload slice.
func AppendFrameHeader(dst []byte, op Op, status Status, reqID uint64, payloadLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerRest+payloadLen))
	dst = append(dst, Version, byte(op), byte(status), 0)
	return binary.LittleEndian.AppendUint64(dst, reqID)
}

// AppendFrame encodes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = AppendFrameHeader(dst, f.Op, f.Status, f.ReqID, len(f.Payload))
	return append(dst, f.Payload...)
}

// ReadFrameHeader reads and validates one frame header from r, populating
// f's identifying fields (Op, Status, ReqID; Payload is reset to nil) and
// returning the payload length that follows on the stream. The caller owns
// reading those bytes — into the call slot's buffer or a discard buffer
// (client), or through ReadFrameInto into reusable scratch (server). maxFrame bounds the
// accepted length (0 means DefaultMaxFrame). io.EOF is returned untouched
// on a clean close before any header byte; a partial header yields
// io.ErrUnexpectedEOF. The identifying fields are zeroed first and decoded
// once the length prefix is accepted, so a server echoing them in a typed
// error reply sends the offender's op and reqID after a version or
// reserved-byte refusal and zeroes after a length refusal — never what an
// earlier frame left in a reused f.
func ReadFrameHeader(r io.Reader, maxFrame uint32, f *Frame) (int, error) {
	f.Op, f.Status, f.ReqID, f.Payload = 0, 0, 0, nil
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	hdr := f.hdr[:]
	if _, err := io.ReadFull(r, hdr[:lenSize]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:lenSize])
	if n < headerRest {
		return 0, ErrShortFrame
	}
	if lenSize+uint64(n) > uint64(maxFrame) {
		return 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, lenSize+uint64(n), maxFrame)
	}
	if _, err := io.ReadFull(r, hdr[lenSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	f.Op = Op(hdr[5])
	f.Status = Status(hdr[6])
	f.ReqID = binary.LittleEndian.Uint64(hdr[8:16])
	if hdr[4] != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[4], Version)
	}
	if hdr[7] != 0 {
		return 0, ErrBadReserved
	}
	return int(n) - headerRest, nil
}

// ReadFrameInto reads one frame from r into f, reusing buf for the payload
// and growing it as needed; it returns the possibly-grown buffer for the
// caller to keep. f.Payload aliases the returned buffer, so the frame is
// valid only until the buffer's next reuse — the zero-copy contract the
// client and server hot paths rely on (DESIGN.md §10). A payload read that
// dies mid-body yields io.ErrUnexpectedEOF.
func ReadFrameInto(r io.Reader, maxFrame uint32, f *Frame, buf []byte) ([]byte, error) {
	payloadLen, err := ReadFrameHeader(r, maxFrame, f)
	if err != nil {
		return buf, err
	}
	if cap(buf) < payloadLen {
		buf = make([]byte, payloadLen)
	}
	buf = buf[:payloadLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	f.Payload = buf
	return buf, nil
}

// HelloInfo is the table geometry a HELLO reply reports.
type HelloInfo struct {
	KeyLen   int
	Shards   int
	Capacity uint64
}

// helloReplyLen is the HELLO reply payload size: keyLen u32, shards u32,
// capacity u64.
const helloReplyLen = 16

// appendHelloReply encodes a HELLO reply payload.
func appendHelloReply(dst []byte, h HelloInfo) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.KeyLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Shards))
	return binary.LittleEndian.AppendUint64(dst, h.Capacity)
}

// parseHelloReply decodes a HELLO reply payload.
func parseHelloReply(p []byte) (HelloInfo, error) {
	if len(p) != helloReplyLen {
		return HelloInfo{}, fmt.Errorf("flowwire: HELLO reply payload is %d bytes, want %d", len(p), helloReplyLen)
	}
	return HelloInfo{
		KeyLen:   int(binary.LittleEndian.Uint32(p[0:4])),
		Shards:   int(binary.LittleEndian.Uint32(p[4:8])),
		Capacity: binary.LittleEndian.Uint64(p[8:16]),
	}, nil
}

// LOOKUP_MANY request payload: count uint32, keyLen uint16, then count keys
// of keyLen bytes each. The per-frame keyLen lets the server reject a
// mismatch with one typed reply instead of per-key surprises.

// appendLookupManyReq encodes keys (all of length keyLen) onto dst.
func appendLookupManyReq(dst []byte, keys [][]byte, keyLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(keyLen))
	for _, k := range keys {
		dst = append(dst, k...)
	}
	return dst
}

// parseLookupManyReq splits a LOOKUP_MANY payload into its key slices
// (aliasing p). keys is appended to in place.
func parseLookupManyReq(p []byte, wantKeyLen int, keys [][]byte) ([][]byte, Status) {
	if len(p) < 6 {
		return keys, StatusErrMalformed
	}
	count := int(binary.LittleEndian.Uint32(p[0:4]))
	keyLen := int(binary.LittleEndian.Uint16(p[4:6]))
	if count > MaxBatchKeys {
		return keys, StatusErrOversized
	}
	if keyLen != wantKeyLen {
		return keys, StatusErrKeyLen
	}
	body := p[6:]
	if keyLen == 0 || len(body) != count*keyLen {
		return keys, StatusErrMalformed
	}
	for i := 0; i < count; i++ {
		keys = append(keys, body[i*keyLen:(i+1)*keyLen])
	}
	return keys, StatusOK
}

// LOOKUP_MANY reply payload: count uint32, then count results of 9 bytes
// each ({ok uint8, value uint64}).

// appendLookupManyReply encodes results onto dst.
func appendLookupManyReply(dst []byte, results []flowserve.Result) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(results)))
	for _, r := range results {
		b := byte(0)
		if r.OK {
			b = 1
		}
		dst = append(dst, b)
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
	}
	return dst
}

// parseLookupManyReply decodes a reply payload: result j lands in
// results[idx[j]], or in results[j] when idx is nil. It returns the reply's
// result count, which may not exceed len(idx) — len(results) when idx is nil;
// a reply that does is an error and leaves results untouched.
func parseLookupManyReply(p []byte, results []flowserve.Result, idx []int) (int, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("flowwire: LOOKUP_MANY reply payload is %d bytes", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p[0:4]))
	body := p[4:]
	limit := len(results)
	if idx != nil {
		limit = len(idx)
	}
	if len(body) != count*9 || count > limit {
		return 0, fmt.Errorf("flowwire: LOOKUP_MANY reply claims %d results in %d bytes", count, len(body))
	}
	for j := 0; j < count; j++ {
		rec := body[j*9 : (j+1)*9]
		i := j
		if idx != nil {
			i = idx[j]
		}
		results[i] = flowserve.Result{
			OK:    rec[0] != 0,
			Value: binary.LittleEndian.Uint64(rec[1:9]),
		}
	}
	return count, nil
}
