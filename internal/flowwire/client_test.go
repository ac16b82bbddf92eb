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
// HELLO immediately but delays each of the first `slow` LOOKUP or LOOKUP_MANY
// replies by `delay` — the deliberately slow server the timeout-race
// regression needs. Lookup replies carry value = first key byte, so a caller
// can prove the reply it got belongs to its own request and not to an earlier
// timed-out one.
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
			case OpLookup, OpLookupMany:
				// Replies are concurrent so a delayed one does not
				// head-of-line block the requests behind it.
				wait := time.Duration(0)
				if slowLeft > 0 {
					slowLeft--
					wait = delay
				}
				var p []byte
				if f.Op == OpLookup {
					p = binary.LittleEndian.AppendUint64([]byte{1}, uint64(f.Payload[0]))
				} else {
					keys, _ := parseLookupManyReq(f.Payload, 20, nil)
					res := make([]flowserve.Result, len(keys))
					for i, k := range keys {
						res[i] = flowserve.Result{OK: true, Value: uint64(k[0])}
					}
					p = appendLookupManyReply(nil, res)
				}
				go func(reply []byte, wait time.Duration) {
					time.Sleep(wait)
					wmu.Lock()
					nc.Write(reply)
					wmu.Unlock()
				}(AppendFrame(nil, &Frame{Op: f.Op, ReqID: f.ReqID, Payload: p}), wait)
			}
		}
	}()
	return Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}
}

// TestLateReplyAfterTimeout pins the readLoop/timeout race: a reply that
// arrives after its call timed out must be discarded (counted as a late
// reply), must not poison the client, and must never be delivered to a
// later caller — the later caller gets its own reply, matched by reqID. The
// timeout runs from the start of the exchange, so it holds alike for a
// blocking call and for a ticket started and only waited on after CallTimeout
// has passed.
func TestLateReplyAfterTimeout(t *testing.T) {
	const callTimeout = 60 * time.Millisecond
	k1 := wkey(0x11)
	for _, first := range []struct {
		name       string
		timeOut    func(t *testing.T, cl *Client)
		wantErrors uint64 // only the error-free signature counts its coercion
	}{
		{"blocking-call", func(t *testing.T, cl *Client) {
			if _, ok := cl.Lookup(k1); ok {
				t.Fatal("timed-out lookup reported a hit")
			}
		}, 1},
		{"ticket", func(t *testing.T, cl *Client) {
			lt, err := cl.StartLookupMany([][]byte{k1})
			if err != nil {
				t.Fatalf("StartLookupMany: %v", err)
			}
			time.Sleep(2 * callTimeout)
			res := []flowserve.Result{{Value: 7, OK: true}}
			if err := lt.Wait(res, nil); !errors.Is(err, ErrCallTimeout) {
				t.Fatalf("Wait after CallTimeout = %v, want ErrCallTimeout", err)
			}
			if res[0] != (flowserve.Result{Value: 7, OK: true}) {
				t.Fatalf("a timed-out Wait wrote %+v into results", res[0])
			}
		}, 0},
	} {
		t.Run(first.name, func(t *testing.T) {
			addr := slowLookupServer(t, 1, 400*time.Millisecond)
			cl, err := DialEndpoint(addr, Options{CallTimeout: callTimeout})
			if err != nil {
				t.Fatalf("DialEndpoint: %v", err)
			}
			defer cl.Close()

			first.timeOut(t, cl)
			c := cl.Counters()
			if c.Timeouts != 1 || c.Errors != first.wantErrors {
				t.Fatalf("counters after timeout = %+v, want 1 timeout, %d errors", c, first.wantErrors)
			}
			if err := cl.Err(); err != nil {
				t.Fatalf("a per-call timeout poisoned the client: %v", err)
			}

			// The second call races the first call's late reply through the
			// same connection; it must get ITS value (0x22), not the stale 0x11.
			v, ok := cl.Lookup(wkey(0x22))
			if !ok || v != 0x22 {
				t.Fatalf("lookup after timeout = (%#x,%v), want (0x22,true)", v, ok)
			}

			// The late reply eventually lands and is discarded, not fatal.
			waitFor(t, "the late reply to be counted", func() bool { return cl.Counters().LateReplies == 1 })
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
		})
	}
}

// TestTicketsWaitedOutOfOrder pins reply matching for the start/wait pair:
// four LOOKUP_MANY tickets started back-to-back on one connection and waited
// in reverse order each get their own reply, scattered through idx or not.
func TestTicketsWaitedOutOfOrder(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 2, Entries: 256, KeyLen: 20}, Config{})
	for i := uint64(0); i < 12; i++ {
		if err := tbl.Insert(wkey(i), 100+i); err != nil {
			t.Fatal(err)
		}
	}
	cl := dialTest(t, addr, Options{Conns: 1})
	var tickets [4]LookupTicket
	for b := range tickets {
		base := uint64(3 * b)
		lt, err := cl.StartLookupMany([][]byte{wkey(base), wkey(base + 1), wkey(base + 2)})
		if err != nil {
			t.Fatalf("StartLookupMany %d: %v", b, err)
		}
		tickets[b] = lt
	}
	// Batch b's keys go to results[b], results[4+b], results[8+b].
	results := make([]flowserve.Result, 12)
	for b := len(tickets) - 1; b >= 0; b-- {
		if err := tickets[b].Wait(results, []int{b, 4 + b, 8 + b}); err != nil {
			t.Fatalf("Wait %d: %v", b, err)
		}
	}
	for b := 0; b < 4; b++ {
		for j := 0; j < 3; j++ {
			if got, want := results[4*j+b], (flowserve.Result{Value: uint64(100 + 3*b + j), OK: true}); got != want {
				t.Errorf("batch %d key %d = %+v, want %+v", b, j, got, want)
			}
		}
	}
	if c := cl.Counters(); c != (ClientCounters{}) {
		t.Fatalf("counters = %+v, want zeroes", c)
	}
	if n := pendingCalls(cl.conns[0]); n != 0 {
		t.Fatalf("%d calls still pending after every ticket was waited", n)
	}
}

func pendingCalls(c *cliConn) int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return len(c.pending)
}

// TestConnDeathBetweenStartAndWait pins the ticket's failure path: when the
// server hangs up with tickets outstanding, every one of them fails with the
// connection's error when waited, nothing is left in pending, and none of the
// slots whose channel the death closed goes back to the pool.
func TestConnDeathBetweenStartAndWait(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const outstanding = 3
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		// Answer the HELLO, swallow the lookups, then hang up.
		var f Frame
		for got := 0; got < outstanding; {
			if err := ReadFrame(nc, 0, &f); err != nil {
				return
			}
			if f.Op == OpHello {
				payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
				nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
			} else {
				got++
			}
		}
	}()
	cl, err := DialEndpoint(Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}, Options{})
	if err != nil {
		t.Fatalf("DialEndpoint: %v", err)
	}
	defer cl.Close()

	var tickets [outstanding]LookupTicket
	for i := range tickets {
		if tickets[i], err = cl.StartLookupMany([][]byte{wkey(uint64(i))}); err != nil {
			t.Fatalf("StartLookupMany %d: %v", i, err)
		}
	}
	waitFor(t, "the hang-up to break the client", func() bool { return cl.Err() != nil })
	res := make([]flowserve.Result, 1)
	for i, lt := range tickets {
		if err := lt.Wait(res, nil); err == nil || err != cl.Err() {
			t.Fatalf("Wait %d = %v, want the connection's error %v", i, err, cl.Err())
		}
	}
	if n := pendingCalls(cl.conns[0]); n != 0 {
		t.Fatalf("%d calls still pending on the dead connection", n)
	}
	// Whatever the pool hands out next must be a live slot.
	for i := 0; i < 2*outstanding; i++ {
		select {
		case _, ok := <-cl.calls.Get().(*pcall).ch:
			if !ok {
				t.Fatal("a slot with a closed channel was recycled")
			}
		default:
		}
	}
	if _, err := cl.StartLookupMany([][]byte{wkey(1)}); err != cl.Err() {
		t.Fatalf("StartLookupMany on the broken client = %v, want %v", err, cl.Err())
	}
}

// TestStartRefusedBeforeTheConnection pins what StartLookupMany checks
// locally: a wrong-length key or a batch over MaxFrame fails the start with
// nothing registered or written, so there is no ticket to wait on and the
// client is as good as before.
func TestStartRefusedBeforeTheConnection(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, addr, Options{Conns: 1, MaxFrame: 4096})
	c := cl.conns[0]
	sent := c.nextID // the HELLO; nothing else writes until the calls below

	if _, err := cl.StartLookupMany([][]byte{wkey(1), wkey(2)[:19]}); !errors.Is(err, flowserve.ErrKeyLen) {
		t.Fatalf("StartLookupMany with a 19-byte key = %v, want ErrKeyLen", err)
	}
	big := make([][]byte, 4096/20+1)
	for i := range big {
		big[i] = wkey(1)
	}
	if _, err := cl.StartLookupMany(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("StartLookupMany of %d keys = %v, want ErrFrameTooLarge", len(big), err)
	}
	c.wmu.Lock()
	if c.nextID != sent {
		t.Errorf("refused starts advanced the connection's reqID from %d to %d", sent, c.nextID)
	}
	c.wmu.Unlock()
	if n := pendingCalls(c); n != 0 {
		t.Errorf("refused starts left %d calls pending", n)
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("a refused start broke the client: %v", err)
	}
	if v, ok := cl.Lookup(wkey(1)); !ok || v != 11 {
		t.Fatalf("Lookup after the refusals = (%d,%v), want (11,true)", v, ok)
	}
	if c := cl.Counters(); c != (ClientCounters{}) {
		t.Fatalf("counters after the refusals = %+v, want zeroes", c)
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
// write timeout still succeed. The client no longer clears the deadline after
// a write, so what this proves is that it never needs to: every write arms a
// fresh deadline first, and an expired one left on an idle connection harms
// nothing.
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
