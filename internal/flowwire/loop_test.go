package flowwire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"halo/internal/flowserve"
)

// These tests pin the connection loop (server.go serve): one goroutine per
// connection reads a burst, serves it in order, flushes when nothing more is
// buffered.

// lookupFrame appends a one-key LOOKUP_MANY request, the frame Client.Lookup
// sends.
func lookupFrame(buf []byte, reqID uint64, key []byte) []byte {
	payload := appendLookupManyReq(nil, [][]byte{key}, len(key))
	return AppendFrame(buf, &Frame{Op: OpLookupMany, ReqID: reqID, Payload: payload})
}

// oneResult decodes the reply to a one-key lookup frame.
func oneResult(t *testing.T, f Frame) flowserve.Result {
	t.Helper()
	var res [1]flowserve.Result
	if n, err := parseLookupManyReply(f.Payload, res[:], nil); err != nil || n != 1 {
		t.Fatalf("reply %+v is not a one-key lookup reply (%d results, %v)", f, n, err)
	}
	return res[0]
}

func insertFrame(buf []byte, reqID uint64, key []byte, value uint64) []byte {
	payload := append(binary.LittleEndian.AppendUint64(nil, value), key...)
	return AppendFrame(buf, &Frame{Op: OpInsert, ReqID: reqID, Payload: payload})
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBurstMutationsSplitLookupRuns sends LOOKUP k, INSERT k, LOOKUP k,
// DELETE k, LOOKUP k in one write: the replies read miss/ok/hit/ok/miss in
// order, and the coalescing ledger shows three one-frame runs — a mutation
// ends a run even when every frame arrived in the same burst.
func TestBurstMutationsSplitLookupRuns(t *testing.T) {
	srv, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	nc := rawConn(t, addr)
	k := wkey(9)
	buf := lookupFrame(nil, 1, k)
	buf = insertFrame(buf, 2, k, 77)
	buf = lookupFrame(buf, 3, k)
	buf = AppendFrame(buf, &Frame{Op: OpDelete, ReqID: 4, Payload: k})
	buf = lookupFrame(buf, 5, k)
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	wantHit := map[uint64]bool{1: false, 3: true, 5: false}
	for id := uint64(1); id <= 5; id++ {
		f := readReply(t, nc)
		if f.ReqID != id || f.Status != StatusOK {
			t.Fatalf("reply %d = %+v, want id %d OK", id, f, id)
		}
		if hit, isLookup := wantHit[id]; isLookup {
			if r := oneResult(t, f); r.OK != hit || (hit && r.Value != 77) {
				t.Fatalf("lookup %d = %+v, want hit %v with value 77", id, r, hit)
			}
		}
	}
	if calls, frames := srv.c.coalesceCalls.Load(), srv.c.coalesceFrames.Load(); calls != 3 || frames != 3 {
		t.Fatalf("coalesce ledger = %d calls over %d frames, want 3 over 3", calls, frames)
	}
}

// TestBurstWithHalfDeliveredTail writes two whole frames and half of a
// third: the whole frames are served and flushed without waiting for the
// rest, and the tail is answered once it arrives.
func TestBurstWithHalfDeliveredTail(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	nc := rawConn(t, addr)
	buf := lookupFrame(nil, 1, wkey(1))
	buf = lookupFrame(buf, 2, wkey(2))
	whole := len(buf)
	buf = lookupFrame(buf, 3, wkey(1))
	cut := whole + (len(buf)-whole)/2
	if _, err := nc.Write(buf[:cut]); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if f := readReply(t, nc); f.ReqID != id || f.Status != StatusOK || oneResult(t, f).OK != (id == 1) {
			t.Fatalf("reply %d before the tail arrived = %+v", id, f)
		}
	}
	if _, err := nc.Write(buf[cut:]); err != nil {
		t.Fatal(err)
	}
	if f := readReply(t, nc); f.ReqID != 3 || f.Status != StatusOK || !oneResult(t, f).OK {
		t.Fatalf("tail reply = %+v", f)
	}
}

// TestOneGoroutinePerConnection counts the goroutines that run, or were
// started by, connection code across N live, idle connections: exactly one
// each. (A goroutine dump rather than a runtime.NumGoroutine delta: earlier
// tests' goroutines are still winding down when this one starts.)
func TestOneGoroutinePerConnection(t *testing.T) {
	srv, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	const conns = 16
	for i := 0; i < conns; i++ {
		nc := rawConn(t, addr) // a bare socket: no client-side goroutines
		nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: 1}))
		if f := readReply(t, nc); f.Op != OpHello || f.Status != StatusOK {
			t.Fatalf("HELLO on conn %d = %+v", i, f)
		}
	}
	if got := srv.c.connsAccepted.Load(); got != conns {
		t.Fatalf("server accepted %d connections, want %d", got, conns)
	}
	dump := make([]byte, 1<<20)
	dump = dump[:runtime.Stack(dump, true)]
	got := 0
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		if bytes.Contains(g, []byte("flowwire.(*srvConn).")) {
			got++
		}
	}
	if got != conns {
		t.Fatalf("%d live connections cost %d goroutines, want %d\n%s", conns, got, conns, dump)
	}
}

// TestSlowReaderIsDisconnected pipelines 10k LOOKUP_MANY frames at the
// server and never reads a reply. The loop does not read while its write is
// stalled, so the server holds at most one burst of the backlog; WriteTimeout
// then retires the connection, counted once, and the drain ledger reports
// the frames it had accepted but could not answer.
func TestSlowReaderIsDisconnected(t *testing.T) {
	const (
		frames  = 10_000
		perCall = 256
	)
	srv, tbl, addr := startServer(t,
		flowserve.Config{Shards: 4, Entries: 4096, KeyLen: 20},
		Config{WriteTimeout: 500 * time.Millisecond})
	keys := make([][]byte, perCall)
	for i := range keys {
		keys[i] = wkey(uint64(i))
		if err := tbl.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	one := AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: 1, Payload: appendLookupManyReq(nil, keys, 20)})
	backlog := make([]byte, 0, frames*len(one))
	for i := 0; i < frames; i++ {
		backlog = append(backlog, one...)
	}
	nc := rawConn(t, addr)

	var before, stalled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		nc.Write(backlog) // fails once the server hangs up; that is the point
	}()

	// The server stalls once its replies fill both socket buffers: accepted
	// stops moving. Its heap then holds everything it will ever hold.
	last, since := uint64(0), time.Now()
	waitFor(t, "the server to stall on its write", func() bool {
		if now := srv.c.framesAccepted.Load(); now != last {
			last, since = now, time.Now()
		}
		return last > 0 && time.Since(since) > 100*time.Millisecond
	})
	runtime.GC()
	runtime.ReadMemStats(&stalled)
	if last >= frames {
		t.Fatalf("the server accepted all %d frames from a client that never reads", frames)
	}
	const slack = 1 << 20 // bufio buffers, results scratch, test noise
	if grew := int64(stalled.HeapAlloc) - int64(before.HeapAlloc); grew > int64(maxBurst*len(one)+slack) {
		t.Fatalf("heap grew %d bytes against a %d-byte backlog; want at most one burst (%d) plus slack",
			grew, len(backlog), maxBurst*len(one))
	}

	waitFor(t, "WriteTimeout to close the connection", func() bool { return srv.c.connsClosed.Load() == 1 })
	nc.Close()
	<-wrote
	if got := srv.c.writeErrors.Load(); got != 1 {
		t.Fatalf("flowwire.write.errors = %d, want 1", got)
	}
	rep := srv.Drain(5 * time.Second)
	if !rep.Clean {
		t.Fatalf("drain after the disconnect = %+v", rep)
	}
	if rep.Lost() == 0 || rep.Lost() != rep.FramesAccepted-rep.RepliesWritten {
		t.Fatalf("ledger does not report the unanswered frames as lost: %+v (Lost %d)", rep, rep.Lost())
	}
	t.Logf("accepted %d of %d frames, %d replies flushed, %d lost", rep.FramesAccepted, frames, rep.RepliesWritten, rep.Lost())
}

// TestProtocolViolationMidBurst puts a fatal frame third in a burst of four:
// the two frames before it are answered, it earns its typed reply, the
// connection closes without serving the fourth, and the ledger balances.
func TestProtocolViolationMidBurst(t *testing.T) {
	good := lookupFrame(nil, 3, wkey(1))
	badVersion := append([]byte(nil), good...)
	badVersion[4] = Version + 1
	badReserved := append([]byte(nil), good...)
	badReserved[7] = 1
	cases := []struct {
		name     string
		frame    []byte
		want     Status
		echoesID bool
	}{
		{"oversized", binary.LittleEndian.AppendUint32(nil, 1<<20), StatusErrOversized, false},
		{"bad-version", badVersion, StatusErrVersion, true},
		{"bad-reserved", badReserved, StatusErrMalformed, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{MaxFrame: 1 << 16})
			nc := rawConn(t, addr)
			buf := lookupFrame(nil, 1, wkey(1))
			buf = lookupFrame(buf, 2, wkey(2))
			buf = append(buf, tc.frame...)
			buf = lookupFrame(buf, 4, wkey(4))
			if _, err := nc.Write(buf); err != nil {
				t.Fatal(err)
			}
			for id := uint64(1); id <= 2; id++ {
				if f := readReply(t, nc); f.ReqID != id || f.Status != StatusOK {
					t.Fatalf("reply %d = %+v", id, f)
				}
			}
			if f := readReply(t, nc); f.Status != tc.want || (tc.echoesID && f.ReqID != 3) {
				t.Fatalf("reply to the %s frame = %+v, want %s", tc.name, f, tc.want)
			}
			assertClosed(t, nc)
			waitFor(t, "the connection to be retired", func() bool { return srv.c.connsClosed.Load() == 1 })
			accepted, rejected, replied := srv.c.framesAccepted.Load(), srv.c.framesRejected.Load(), srv.c.repliesWritten.Load()
			if accepted != 2 || rejected != 1 || replied != 3 {
				t.Fatalf("ledger: accepted %d, rejected %d, replied %d; want 2, 1, 3", accepted, rejected, replied)
			}
		})
	}
	// A length refusal decodes no header, so its reply has no identity to
	// echo — in particular not the one the previous burst left in the frame
	// slot the refused read reused.
	t.Run("oversized-after-slot-reuse", func(t *testing.T) {
		_, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{MaxFrame: 1 << 16})
		nc := rawConn(t, addr)
		if _, err := nc.Write(lookupFrame(nil, 7, wkey(1))); err != nil {
			t.Fatal(err)
		}
		if f := readReply(t, nc); f.ReqID != 7 || f.Status != StatusOK {
			t.Fatalf("reply to the good frame = %+v", f)
		}
		if _, err := nc.Write(binary.LittleEndian.AppendUint32(nil, 1<<20)); err != nil {
			t.Fatal(err)
		}
		if f := readReply(t, nc); f.Status != StatusErrOversized || f.ReqID != 0 || f.Op != 0 {
			t.Fatalf("reply to the over-limit prefix = op %d reqID %d status %s, want op 0 reqID 0 %s", f.Op, f.ReqID, f.Status, StatusErrOversized)
		}
		assertClosed(t, nc)
	})
}

// TestDrainWakesConnectionsGoingIdle races Drain against connections that
// have just been answered and are on their way back to a blocking read — the
// window in which a loop that checked the draining flag before arming its
// idle deadline would overwrite Drain's wake-up and sleep until the drain
// timeout force-closed it.
func TestDrainWakesConnectionsGoingIdle(t *testing.T) {
	const (
		rounds  = 200
		clients = 4
		timeout = 3 * time.Second
	)
	for round := 0; round < rounds; round++ {
		srv, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			cl := dialTest(t, addr, Options{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.Lookup(wkey(1))
			}()
		}
		wg.Wait()
		start := time.Now()
		rep := srv.Drain(timeout)
		if took := time.Since(start); !rep.Clean || rep.Lost() != 0 || took > timeout/3 {
			t.Fatalf("round %d: drain of %d idle connections took %v: %+v", round, clients, took, rep)
		}
	}
}
