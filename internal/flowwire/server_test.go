package flowwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"halo/internal/flowserve"
)

// wkey builds a 20-byte key (the packet header-key width) from a number.
func wkey(i uint64) []byte {
	k := make([]byte, 20)
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i*0x9e3779b97f4a7c15)
	return k
}

// startServer runs a server over a fresh table on a TCP loopback listener
// and tears both down with the test.
func startServer(t testing.TB, tblCfg flowserve.Config, srvCfg Config) (*Server, *flowserve.Table, Endpoint) {
	t.Helper()
	return startServerOn(t, TransportTCP, tblCfg, srvCfg)
}

func dialTest(t testing.TB, ep Endpoint, opts Options) *Client {
	t.Helper()
	cl, err := DialEndpoint(ep, opts)
	if err != nil {
		t.Fatalf("DialEndpoint: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestClientServerOps(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 4, Entries: 4096, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{Conns: 2})

	if h := cl.Hello(); h.KeyLen != 20 || h.Shards != 4 || h.Capacity != tbl.Capacity() {
		t.Fatalf("HELLO = %+v", h)
	}

	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(wkey(i), i*7+1); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if got := tbl.Size(); got != n {
		t.Fatalf("server table size = %d, want %d", got, n)
	}
	if err := cl.Insert(wkey(1), 9); !errors.Is(err, flowserve.ErrKeyExists) {
		t.Fatalf("duplicate insert = %v, want ErrKeyExists", err)
	}
	if err := cl.Insert(make([]byte, 3), 9); !errors.Is(err, flowserve.ErrKeyLen) {
		t.Fatalf("short-key insert = %v, want ErrKeyLen", err)
	}

	for i := uint64(0); i < n; i++ {
		v, ok := cl.Lookup(wkey(i))
		if !ok || v != i*7+1 {
			t.Fatalf("Lookup(%d) = (%d,%v), want (%d,true)", i, v, ok, i*7+1)
		}
	}
	if _, ok := cl.Lookup(wkey(n + 3)); ok {
		t.Fatal("absent key hit over the wire")
	}
	if _, ok := cl.Lookup(make([]byte, 7)); ok {
		t.Fatal("wrong-length key hit over the wire")
	}

	if !cl.Update(wkey(2), 999) {
		t.Fatal("Update of a present key failed")
	}
	if v, ok := cl.Lookup(wkey(2)); !ok || v != 999 {
		t.Fatalf("value after Update = (%d,%v)", v, ok)
	}
	if cl.Update(wkey(n+8), 1) {
		t.Fatal("Update of an absent key succeeded")
	}
	if !cl.Delete(wkey(2)) {
		t.Fatal("Delete of a present key failed")
	}
	if cl.Delete(wkey(2)) {
		t.Fatal("Delete of an absent key succeeded")
	}
	if _, ok := cl.Lookup(wkey(2)); ok {
		t.Fatal("deleted key still hits")
	}

	if err := cl.Err(); err != nil {
		t.Fatalf("client error after clean ops: %v", err)
	}
}

// TestClientLookupManyMatchesLocal drives the same batches through the wire
// and through the table directly, byte-comparing every result.
func TestClientLookupManyMatchesLocal(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 8, Entries: 8192, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{})
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(wkey(i), i^0xf00d); err != nil {
			t.Fatal(err)
		}
	}
	const batch = 57
	keys := make([][]byte, batch)
	remote := make([]flowserve.Result, batch)
	local := make([]flowserve.Result, batch)
	for lo := uint64(0); lo < n+300; lo += batch {
		for j := range keys {
			keys[j] = wkey(lo + uint64(j)*2)
		}
		rh := cl.LookupMany(keys, remote)
		lh := tbl.LookupMany(keys, local)
		if rh != lh {
			t.Fatalf("remote hits %d, local hits %d", rh, lh)
		}
		for j := range keys {
			if remote[j] != local[j] {
				t.Fatalf("key %d: remote %+v, local %+v", j, remote[j], local[j])
			}
		}
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestClientLookupManyMixedKeyLengths(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 2, Entries: 512, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{wkey(1), make([]byte, 3), wkey(2), nil}
	results := make([]flowserve.Result, len(keys))
	if hits := cl.LookupMany(keys, results); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if !results[0].OK || results[0].Value != 11 {
		t.Fatalf("present key = %+v", results[0])
	}
	for _, j := range []int{1, 2, 3} {
		if results[j] != (flowserve.Result{}) {
			t.Fatalf("key %d = %+v, want a miss", j, results[j])
		}
	}
	// All-invalid batch never touches the wire.
	if hits := cl.LookupMany([][]byte{nil, make([]byte, 5)}, results); hits != 0 {
		t.Fatalf("all-invalid batch hits = %d", hits)
	}
}

func TestServerStatsOp(t *testing.T) {
	srv, tbl, addr := startServer(t, flowserve.Config{Shards: 2, Entries: 512, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{})
	if err := cl.Insert(wkey(1), 5); err != nil {
		t.Fatal(err)
	}
	cl.Lookup(wkey(1))
	snap, err := cl.StatsSnapshot()
	if err != nil {
		t.Fatalf("StatsSnapshot: %v", err)
	}
	counters := snap.Counters
	if counters["flowserve.inserts"] != 1 || counters["flowserve.lookups"] != 1 {
		t.Fatalf("table counters over the wire = %v", counters)
	}
	if counters["flowwire.conns.accepted"] != 1 || counters["flowwire.frames.accepted"] < 3 {
		t.Fatalf("server counters over the wire = %v", counters)
	}
	_ = srv
	_ = tbl
}

// rawConn dials without the client, for hand-crafted frames.
func rawConn(t *testing.T, ep Endpoint) net.Conn {
	t.Helper()
	nc, err := dialTransport(ep, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// readReply reads one frame with a deadline.
func readReply(t *testing.T, nc net.Conn) Frame {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var f Frame
	if _, err := ReadFrameInto(nc, 0, &f, nil); err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	return f
}

// TestServerRejectsUnknownOp pins the typed reply to an op the server does
// not speak — an unassigned code, and 2, the retired single-key LOOKUP whose
// well-formed one-key payload must not be served as a lookup — and that the
// connection keeps serving after it.
func TestServerRejectsUnknownOp(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		op      Op
		payload []byte
	}{
		{"unassigned", Op(99), nil},
		{"retired-lookup", Op(2), wkey(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc := rawConn(t, addr)
			nc.Write(AppendFrame(nil, &Frame{Op: tc.op, ReqID: 41, Payload: tc.payload}))
			f := readReply(t, nc)
			if f.Op != tc.op || f.Status != StatusErrOp || f.ReqID != 41 || len(f.Payload) != 0 {
				t.Fatalf("op %d reply = %+v, want ERR_OP/41 with no payload", tc.op, f)
			}
			// An unknown op is a typed reply, not a connection killer.
			nc.Write(lookupFrame(nil, 42, wkey(1)))
			f = readReply(t, nc)
			if f.Op != OpLookupMany || f.Status != StatusOK || f.ReqID != 42 {
				t.Fatalf("lookup after op %d = %+v", tc.op, f)
			}
			if r := oneResult(t, f); !r.OK || r.Value != 11 {
				t.Fatalf("lookup after op %d = %+v, want 11", tc.op, r)
			}
		})
	}
}

func TestServerRejectsBadVersion(t *testing.T) {
	_, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	nc := rawConn(t, addr)
	buf := lookupFrame(nil, 7, wkey(1))
	buf[4] = Version + 9
	nc.Write(buf)
	f := readReply(t, nc)
	if f.Status != StatusErrVersion || f.ReqID != 7 {
		t.Fatalf("bad-version reply = %+v, want ERR_VERSION/7", f)
	}
	assertClosed(t, nc)
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	_, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{MaxFrame: 1024})
	nc := rawConn(t, addr)
	nc.Write(binary.LittleEndian.AppendUint32(nil, 1<<20))
	f := readReply(t, nc)
	if f.Status != StatusErrOversized {
		t.Fatalf("oversized reply = %+v, want ERR_OVERSIZED", f)
	}
	assertClosed(t, nc)
}

func TestServerRejectsShortLengthFrame(t *testing.T) {
	_, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	nc := rawConn(t, addr)
	nc.Write(binary.LittleEndian.AppendUint32(nil, headerRest-3))
	f := readReply(t, nc)
	if f.Status != StatusErrMalformed {
		t.Fatalf("short-length reply = %+v, want ERR_MALFORMED", f)
	}
	assertClosed(t, nc)
}

func TestServerClosesOnHalfFrame(t *testing.T) {
	srv, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	nc := rawConn(t, addr)
	full := lookupFrame(nil, 3, wkey(1))
	nc.Write(full[:len(full)-4]) // die mid-frame
	nc.Close()
	// The server closes without a reply and without counting an accepted
	// frame (nothing to lose at drain time).
	deadline := time.Now().Add(5 * time.Second)
	for srv.c.connsClosed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never closed the half-frame connection")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.c.framesAccepted.Load(); got != 0 {
		t.Fatalf("half frame counted as accepted (%d)", got)
	}
	if got := srv.c.framesRejected.Load(); got != 0 {
		t.Fatalf("half frame counted as rejected (%d)", got)
	}
}

func TestServerRejectsMalformedLookupManyPayload(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 1); err != nil {
		t.Fatal(err)
	}
	nc := rawConn(t, addr)

	// Count claims 5 keys, body carries 2.
	payload := binary.LittleEndian.AppendUint32(nil, 5)
	payload = binary.LittleEndian.AppendUint16(payload, 20)
	payload = append(payload, bytes.Repeat([]byte{1}, 40)...)
	nc.Write(AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 51, Payload: payload}))
	f := readReply(t, nc)
	if f.Status != StatusErrMalformed || f.ReqID != 51 {
		t.Fatalf("count-mismatch reply = %+v, want ERR_MALFORMED/51", f)
	}

	// Wrong per-frame key length is its own typed error.
	payload = appendLookupManyReq(nil, [][]byte{make([]byte, 16)}, 16)
	nc.Write(AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 52, Payload: payload}))
	f = readReply(t, nc)
	if f.Status != StatusErrKeyLen || f.ReqID != 52 {
		t.Fatalf("key-length reply = %+v, want ERR_KEYLEN/52", f)
	}

	// The connection survived both typed errors.
	nc.Write(lookupFrame(nil, 53, wkey(1)))
	f = readReply(t, nc)
	if f.Status != StatusOK || !oneResult(t, f).OK {
		t.Fatalf("lookup after payload errors = %+v", f)
	}
}

// TestServeOneRefusals sends each frame serveOne answers with a typed error
// and checks the reply, that the connection keeps serving, and that the
// table did not change.
func TestServeOneRefusals(t *testing.T) {
	_, solo, soloEp := startServer(t, flowserve.Config{Shards: 4, Entries: 1024, KeyLen: 20}, Config{})
	_, node, nodeEp := startClusterNode(t)
	fillTable(t, solo, 50)
	fillTable(t, node, 50)
	short := purgeRecord(0, 0)
	short.Key = short.Key[:7]
	for _, tc := range []struct {
		name    string
		ep      Endpoint
		op      Op
		payload []byte
		want    Status
	}{
		{"short-insert", soloEp, OpInsert, make([]byte, 7), StatusErrMalformed},
		{"insert-keylen", soloEp, OpInsert, make([]byte, 8+19), StatusErrKeyLen},
		{"delete-keylen", soloEp, OpDelete, make([]byte, 21), StatusErrKeyLen},
		{"mig-status-standalone", soloEp, OpMigStatus, nil, StatusErrCluster},
		{"malformed-mig-apply", nodeEp, OpMigApply, []byte{1, 0, 0}, StatusErrMalformed},
		{"purge-7-byte-key", nodeEp, OpMigApply, appendMigRecords(nil, []MigRecord{short}), StatusErrMalformed},
	} {
		nc := rawConn(t, tc.ep)
		nc.Write(AppendFrame(nil, &Frame{Op: tc.op, ReqID: 61, Payload: tc.payload}))
		if f := readReply(t, nc); f.Op != tc.op || f.Status != tc.want || f.ReqID != 61 || len(f.Payload) != 0 {
			t.Errorf("%s: reply %+v, want %v/61 with no payload", tc.name, f, tc.want)
		}
		nc.Write(lookupFrame(nil, 62, wkey(1)))
		if f := readReply(t, nc); f.Status != StatusOK || oneResult(t, f).Value != 2 {
			t.Errorf("%s: lookup after the refusal = %+v", tc.name, f)
		}
	}
	if solo.Size() != 50 || node.Size() != 50 {
		t.Fatalf("table sizes after the refusals = %d and %d, want 50 and 50", solo.Size(), node.Size())
	}
}

// assertClosed verifies the server hangs up after a fatal protocol error.
func assertClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := nc.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open after fatal frame: %v", err)
	}
}

// TestServerCoalescesPipelinedLookups floods one connection with pipelined
// frames and checks the server actually merged some into shared batch calls
// while answering each with its own correct reply.
func TestServerCoalescesPipelinedLookups(t *testing.T) {
	srv, tbl, addr := startServer(t, flowserve.Config{Shards: 4, Entries: 4096, KeyLen: 20}, Config{})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(wkey(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
	nc := rawConn(t, addr)
	const frames = 400
	var buf []byte
	for i := uint64(0); i < frames; i++ {
		if i%4 == 0 {
			payload := appendLookupManyReq(nil, [][]byte{wkey(i % n), wkey((i + 1) % n)}, 20)
			buf = AppendFrame(buf, &Frame{Op: OpLookupMany, ReqID: i, Payload: payload})
		} else {
			buf = lookupFrame(buf, i, wkey(i%n))
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < frames; i++ {
		f := readReply(t, nc)
		if f.ReqID != i || f.Status != StatusOK {
			t.Fatalf("reply %d = %+v (replies must stay in FIFO order)", i, f)
		}
		res := make([]flowserve.Result, 2)
		want := 1
		if i%4 == 0 {
			want = 2
		}
		if c, err := parseLookupManyReply(f.Payload, res, nil); err != nil || c != want || !res[0].OK || res[0].Value != i%n+1 {
			t.Fatalf("reply %d = %d results %+v (%v)", i, c, res, err)
		}
	}
	calls := srv.c.coalesceCalls.Load()
	merged := srv.c.coalesceFrames.Load()
	if merged != frames {
		t.Fatalf("coalesce ledger saw %d frames, want %d", merged, frames)
	}
	if calls == frames {
		t.Log("no frames were merged (timing-dependent); coalescing not exercised this run")
	} else {
		t.Logf("coalesced %d frames into %d batch calls", merged, calls)
	}
}

// TestMutationOrderingThroughCoalescer interleaves lookups and mutations of
// one key on one pipelined connection: FIFO semantics require each lookup
// to see exactly the preceding mutation's state.
func TestMutationOrderingThroughCoalescer(t *testing.T) {
	_, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	nc := rawConn(t, addr)
	k := wkey(7)
	var buf []byte
	id := uint64(0)
	emit := func(op Op, payload []byte) uint64 {
		id++
		buf = AppendFrame(buf, &Frame{Op: op, ReqID: id, Payload: payload})
		return id
	}
	type expect struct {
		id    uint64
		op    Op
		value uint64
		ok    bool
	}
	var wants []expect
	for round := uint64(1); round <= 20; round++ {
		ins := make([]byte, 8+len(k))
		binary.LittleEndian.PutUint64(ins, round*10)
		copy(ins[8:], k)
		wants = append(wants, expect{emit(OpInsert, ins), OpInsert, 0, true})
		lookup := appendLookupManyReq(nil, [][]byte{k}, len(k))
		wants = append(wants, expect{emit(OpLookupMany, lookup), OpLookupMany, round * 10, true})
		wants = append(wants, expect{emit(OpDelete, k), OpDelete, 0, true})
		wants = append(wants, expect{emit(OpLookupMany, lookup), OpLookupMany, 0, false})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	for _, w := range wants {
		f := readReply(t, nc)
		if f.ReqID != w.id || f.Status != StatusOK {
			t.Fatalf("reply = %+v, want id %d OK", f, w.id)
		}
		if w.op == OpLookupMany {
			if r := oneResult(t, f); r.OK != w.ok || (r.OK && r.Value != w.value) {
				t.Fatalf("lookup %d = %+v, want (%d,%v)", w.id, r, w.value, w.ok)
			}
		}
	}
}
