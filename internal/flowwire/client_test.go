package flowwire

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"halo/internal/flowserve"
	"halo/internal/stats"
)

// slowLookupServer is a hand-rolled single-connection server that answers
// HELLO immediately but delays each of the first `slow` LOOKUP replies by
// `delay` — the deliberately slow server the timeout-race regression needs.
// Lookup replies carry value = first key byte, so a caller can prove the
// reply it got belongs to its own request and not to an earlier timed-out
// one.
func slowLookupServer(t *testing.T, slow int, delay time.Duration) Endpoint {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var wmu sync.Mutex
		slowLeft := slow
		for {
			var f Frame
			if err := ReadFrame(nc, 0, &f); err != nil {
				return
			}
			switch f.Op {
			case OpHello:
				payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
				wmu.Lock()
				nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
				wmu.Unlock()
			case OpLookup:
				// Replies are concurrent so a delayed one does not
				// head-of-line block the requests behind it.
				wait := time.Duration(0)
				if slowLeft > 0 {
					slowLeft--
					wait = delay
				}
				go func(reqID uint64, keyByte byte, wait time.Duration) {
					time.Sleep(wait)
					p := make([]byte, 9)
					p[0] = 1
					binary.LittleEndian.PutUint64(p[1:], uint64(keyByte))
					wmu.Lock()
					nc.Write(AppendFrame(nil, &Frame{Op: OpLookup, ReqID: reqID, Payload: p}))
					wmu.Unlock()
				}(f.ReqID, f.Payload[0], wait)
			}
		}
	}()
	return Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}
}

// TestLateReplyAfterTimeout pins the readLoop/timeout race: a reply that
// arrives after its call timed out must be discarded (counted as a late
// reply), must not poison the client, and must never be delivered to a
// later caller — the later caller gets its own reply, matched by reqID.
func TestLateReplyAfterTimeout(t *testing.T) {
	addr := slowLookupServer(t, 1, 400*time.Millisecond)
	cl, err := DialEndpoint(addr, Options{CallTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialEndpoint: %v", err)
	}
	defer cl.Close()

	k1, k2 := wkey(0x11), wkey(0x22)
	if _, ok := cl.Lookup(k1); ok {
		t.Fatal("timed-out lookup reported a hit")
	}
	c := cl.Counters()
	if c.Timeouts != 1 || c.Errors != 1 {
		t.Fatalf("counters after timeout = %+v, want 1 timeout, 1 error", c)
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("a per-call timeout poisoned the client: %v", err)
	}

	// The second call races the first call's late reply through the same
	// connection; it must get ITS value (0x22), not the stale 0x11.
	v, ok := cl.Lookup(k2)
	if !ok || v != 0x22 {
		t.Fatalf("lookup after timeout = (%#x,%v), want (0x22,true)", v, ok)
	}

	// The late reply eventually lands and is discarded, not fatal.
	deadline := time.Now().Add(2 * time.Second)
	for cl.Counters().LateReplies == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("late reply never observed; counters %+v", cl.Counters())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("late reply broke the client: %v", err)
	}
	// The connection is still fully usable after the discard.
	if v, ok := cl.Lookup(wkey(0x33)); !ok || v != 0x33 {
		t.Fatalf("lookup after late-reply discard = (%#x,%v)", v, ok)
	}

	snap := stats.NewSnapshot()
	cl.CollectInto(snap)
	if snap.Counter("flowwire.client.timeouts") != 1 || snap.Counter("flowwire.client.late_replies") != 1 {
		t.Fatalf("CollectInto counters = %v", snap.Counters)
	}
}

// TestWriteErrorMarksConnDead pins the post-write-error contract: once a
// write fails (here: the peer stops reading and the write deadline fires
// with the socket buffers full), the connection is explicitly dead — later
// calls fail fast instead of appending frames to a torn bufio stream — and
// the failure is sticky on the client.
func TestWriteErrorMarksConnDead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// Answer the HELLO, then go silent: never read another byte.
		var f Frame
		if err := ReadFrame(nc, 0, &f); err == nil && f.Op == OpHello {
			payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
			nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
		}
		accepted <- nc
	}()
	cl, err := DialEndpoint(Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}, Options{
		WriteTimeout: 50 * time.Millisecond,
		CallTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialEndpoint: %v", err)
	}
	defer cl.Close()
	defer func() {
		if nc := <-accepted; nc != nil {
			nc.Close()
		}
	}()

	// Pump large batches until the kernel buffers fill and the write
	// deadline fires. Each frame is ~80KB; a few dozen exceed any default
	// socket buffering.
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = wkey(uint64(i))
	}
	results := make([]flowserve.Result, len(keys))
	var sawErr bool
	for i := 0; i < 256; i++ {
		cl.LookupMany(keys, results)
		if cl.Err() != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("write against a non-reading peer never failed")
	}

	// The conn is dead: the next call returns the stored write error fast,
	// without attempting another write or waiting out a timeout.
	start := time.Now()
	if cl.Update(wkey(1), 9) {
		t.Fatal("Update succeeded on a dead connection")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("dead-conn call took %v, want fast failure", elapsed)
	}
	if cl.Counters().Errors == 0 {
		t.Fatal("coerced failures were not counted")
	}
	var ne net.Error
	if err := cl.Err(); err == nil || (!errors.As(err, &ne) && !errors.Is(err, ErrCallTimeout)) {
		t.Fatalf("sticky error = %v, want the underlying write error", err)
	}
}

// TestWriteDeadlineClearedBetweenCalls pins that a deadline armed for one
// write cannot fire under a later one: calls separated by more than the
// write timeout still succeed.
func TestWriteDeadlineClearedBetweenCalls(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 256, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(5), 55); err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, addr, Options{WriteTimeout: 40 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if v, ok := cl.Lookup(wkey(5)); !ok || v != 55 {
			t.Fatalf("lookup %d = (%d,%v)", i, v, ok)
		}
		time.Sleep(90 * time.Millisecond) // well past the write timeout
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	if c := cl.Counters(); c.Errors != 0 {
		t.Fatalf("idle gaps between calls produced errors: %+v", c)
	}
}

// TestClientErrorCounterOnServerGone pins satellite semantics for the
// silent-coercion fix: once the server is gone, reads keep returning misses
// (the interface contract) but every coerced failure is counted, so a load
// driver can tell "cold table" from "broken transport".
func TestClientErrorCounterOnServerGone(t *testing.T) {
	srv, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 256, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, addr, Options{CallTimeout: 2 * time.Second})
	if v, ok := cl.Lookup(wkey(1)); !ok || v != 11 {
		t.Fatalf("warmup lookup = (%d,%v)", v, ok)
	}
	if c := cl.Counters(); c.Errors != 0 {
		t.Fatalf("healthy run counted errors: %+v", c)
	}

	srv.Close()

	keys := [][]byte{wkey(1), wkey(2)}
	results := make([]flowserve.Result, 2)
	deadline := time.Now().Add(5 * time.Second)
	for cl.Counters().Errors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no coerced failure was ever counted")
		}
		if hits := cl.LookupMany(keys, results); hits != 0 {
			t.Fatalf("hits after server close = %d", hits)
		}
	}
	before := cl.Counters().Errors
	if _, ok := cl.Lookup(wkey(1)); ok {
		t.Fatal("hit after server close")
	}
	if cl.Update(wkey(1), 2) || cl.Delete(wkey(1)) {
		t.Fatal("mutation succeeded after server close")
	}
	if got := cl.Counters().Errors; got < before+3 {
		t.Fatalf("errors after coerced lookup+update+delete = %d, want >= %d", got, before+3)
	}
	if err := cl.Err(); err == nil {
		t.Fatal("server close left no sticky error")
	}
}

// TestOversizedRequestRefusedLocally pins the request side of MaxFrame: a
// batch whose frame would exceed it is refused before it reaches the
// connection. Sent, it would earn ERR_OVERSIZED and a close, and every
// goroutine sharing the pool would serve misses from then on.
func TestOversizedRequestRefusedLocally(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, addr, Options{})

	keys := make([][]byte, 60000) // 1.2 MB of keys > DefaultMaxFrame
	for i := range keys {
		keys[i] = wkey(1)
	}
	results := make([]flowserve.Result, len(keys))
	results[0].OK = true
	if _, err := cl.LookupManyE(keys, results); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("LookupManyE of %d keys = %v, want ErrFrameTooLarge", len(keys), err)
	}
	if results[0].OK {
		t.Fatal("a refused batch left a hit behind")
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("a per-call refusal broke the client: %v", err)
	}
	if v, ok := cl.Lookup(wkey(1)); !ok || v != 11 {
		t.Fatalf("Lookup after the refusal = (%d,%v), want (11,true)", v, ok)
	}
	if c := cl.Counters(); c.LateReplies != 0 || c.Errors != 0 {
		t.Fatalf("counters after the refusal = %+v, want zeroes", c)
	}
}
