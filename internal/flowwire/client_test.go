package flowwire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halo/internal/flowserve"
	"halo/internal/stats"
)

// slowLookupServer is a hand-rolled single-connection server that answers
// HELLO immediately and the i-th LOOKUP_MANY after delayFor(i) — the
// deliberately slow server the timeout-race tests need. Lookup replies carry
// value = first key byte, so a caller can prove the reply it got belongs to
// its own request and not to an earlier timed-out one. The returned counter
// is the number of lookup replies written so far: a test that wants a late
// reply drained waits for it to be on the wire first.
func slowLookupServer(t *testing.T, delayFor func(i int) time.Duration) (Endpoint, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	written := new(atomic.Int64)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var wmu sync.Mutex
		for i := 0; ; {
			var f Frame
			if _, err := ReadFrameInto(nc, 0, &f, nil); err != nil {
				return
			}
			switch f.Op {
			case OpHello:
				payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
				wmu.Lock()
				nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
				wmu.Unlock()
			case OpLookupMany:
				keys, _ := parseLookupManyReq(f.Payload, 20, nil)
				res := make([]flowserve.Result, len(keys))
				for i, k := range keys {
					res[i] = flowserve.Result{OK: true, Value: uint64(k[0])}
				}
				p := appendLookupManyReply(nil, res)
				// Replies are concurrent so a delayed one does not
				// head-of-line block the requests behind it.
				go func(reply []byte, wait time.Duration) {
					time.Sleep(wait)
					wmu.Lock()
					nc.Write(reply)
					written.Add(1)
					wmu.Unlock()
				}(AppendFrame(nil, &Frame{Op: f.Op, ReqID: f.ReqID, Payload: p}), delayFor(i))
				i++
			}
		}
	}()
	return Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}, written
}

// manualServer accepts one connection, answers its HELLO and from then on
// only listens: every later request is handed to the test on reqs, and the
// test writes the replies — whole, partial or never — on the connection
// itself.
type manualServer struct {
	ep   Endpoint
	reqs chan Frame
	conn chan net.Conn
}

func startManualServer(t *testing.T) *manualServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ms := &manualServer{
		ep:   Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()},
		reqs: make(chan Frame, 16), // more than any test keeps outstanding
		conn: make(chan net.Conn, 1),
	}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		for first := true; ; first = false {
			var f Frame
			if _, err := ReadFrameInto(nc, 0, &f, nil); err != nil {
				return
			}
			if first {
				payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
				nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
				ms.conn <- nc
				continue
			}
			ms.reqs <- f
		}
	}()
	return ms
}

// dial connects a one-connection client and returns it with the server's end
// of the connection.
func (ms *manualServer) dial(t *testing.T, opts Options) (*Client, net.Conn) {
	t.Helper()
	opts.Conns = 1
	cl := dialTest(t, ms.ep, opts)
	nc := <-ms.conn
	t.Cleanup(func() { nc.Close() })
	return cl, nc
}

// lookupManyReply encodes the reply to a one-key LOOKUP_MANY request:
// a hit whose value is the key's first byte.
func lookupManyReply(req *Frame) []byte {
	p := appendLookupManyReply(nil, []flowserve.Result{{OK: true, Value: uint64(req.Payload[6])}})
	return AppendFrame(nil, &Frame{Op: OpLookupMany, ReqID: req.ReqID, Payload: p})
}

// clientCounts is a client's counters as CollectInto publishes them.
type clientCounts struct{ errors, timeouts, lateReplies, handoffs uint64 }

func countsOf(cl *Client) clientCounts {
	snap := stats.NewSnapshot()
	cl.CollectInto(snap)
	n := func(name string) uint64 { return snap.Counter("flowwire.client." + name) }
	return clientCounts{n("errors"), n("timeouts"), n("late_replies"), n("handoffs")}
}

// lookupE is Client.Lookup with the error surfaced: a one-key ticket started
// and waited at once.
func lookupE(cl *Client, key []byte) (uint64, bool, error) {
	var res [1]flowserve.Result
	lt, err := cl.StartLookupMany([][]byte{key})
	if err == nil {
		err = lt.Wait(res[:], nil)
	}
	return res[0].Value, res[0].OK, err
}

// startOne starts a one-key LOOKUP_MANY and returns its ticket with the
// request as the server received it.
func (ms *manualServer) startOne(t *testing.T, cl *Client, key []byte) (LookupTicket, Frame) {
	t.Helper()
	lt, err := cl.StartLookupMany([][]byte{key})
	if err != nil {
		t.Fatalf("StartLookupMany: %v", err)
	}
	return lt, <-ms.reqs
}

// TestLateReplyAfterTimeout pins the reply/timeout race: a reply that
// arrives after its call timed out must be discarded (counted as a late
// reply by the reader that drains it), must not poison the client, and must
// never be delivered to a later caller — the later caller gets its own reply,
// matched by reqID. The timeout runs from the start of the exchange, so it
// holds alike for a blocking call and for a ticket started and only waited on
// after CallTimeout has passed.
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
			addr, written := slowLookupServer(t, func(i int) time.Duration {
				if i == 0 {
					return 400 * time.Millisecond
				}
				return 0
			})
			cl, err := DialEndpoint(addr, Options{CallTimeout: callTimeout})
			if err != nil {
				t.Fatalf("DialEndpoint: %v", err)
			}
			defer cl.Close()

			first.timeOut(t, cl)
			c := countsOf(cl)
			if c.timeouts != 1 || c.errors != first.wantErrors {
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

			// Nobody reads in the background: the late reply sits in the stream
			// until the next call's reader finds it ahead of its own reply, and
			// is discarded there — counted, not fatal.
			waitFor(t, "the late reply to be written", func() bool { return written.Load() == 2 })
			if c := countsOf(cl); c.lateReplies != 0 {
				t.Fatalf("late_replies = %d with no call made since the reply landed", c.lateReplies)
			}
			if v, ok := cl.Lookup(wkey(0x33)); !ok || v != 0x33 {
				t.Fatalf("lookup draining the late reply = (%#x,%v)", v, ok)
			}
			if c := countsOf(cl); c.lateReplies != 1 {
				t.Fatalf("late_replies = %d after the third lookup drained the stream, want 1", c.lateReplies)
			}
			if err := cl.Err(); err != nil {
				t.Fatalf("late reply broke the client: %v", err)
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
	if c := countsOf(cl); c != (clientCounts{}) {
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

// assertConnDead checks what every connection death must leave behind on a
// one-connection client: nothing pending, no slot with a closed channel in
// the pool, and a start that refuses with the client's error.
func assertConnDead(t *testing.T, cl *Client) {
	t.Helper()
	if cl.Err() == nil {
		t.Fatal("the connection died and Err() is nil")
	}
	if n := pendingCalls(cl.conns[0]); n != 0 {
		t.Errorf("%d calls still pending on the dead connection", n)
	}
	// Whatever the pool hands out next must be a live slot.
	for i := 0; i < 8; i++ {
		select {
		case _, ok := <-cl.calls.Get().(*pcall).ch:
			if !ok {
				t.Fatal("a slot with a closed channel was recycled")
			}
		default:
		}
	}
	if _, err := cl.StartLookupMany([][]byte{wkey(1)}); err != cl.Err() {
		t.Errorf("StartLookupMany on the broken client = %v, want %v", err, cl.Err())
	}
}

// TestConnDeathBetweenStartAndWait pins the ticket's failure path: a hang-up
// is noticed by the next read on the connection, not in the background. With
// tickets outstanding when the server hangs up, the first Wait reads the EOF,
// breaks the client and fails every other ticket; each fails with the
// connection's error when waited.
func TestConnDeathBetweenStartAndWait(t *testing.T) {
	ms := startManualServer(t)
	cl, nc := ms.dial(t, Options{})
	var tickets [3]LookupTicket
	for i := range tickets {
		tickets[i], _ = ms.startOne(t, cl, wkey(uint64(i)))
	}
	nc.Close() // every request swallowed, none answered
	res := make([]flowserve.Result, 1)
	for i, lt := range tickets {
		if err := lt.Wait(res, nil); err == nil || err != cl.Err() {
			t.Fatalf("Wait %d = %v, want the connection's error %v", i, err, cl.Err())
		}
	}
	if !errors.Is(cl.Err(), ErrConnClosed) {
		t.Errorf("Err() = %v, want ErrConnClosed", cl.Err())
	}
	assertConnDead(t, cl)
}

// TestTimeoutInsideAFrameBreaksTheConnection pins the fatal half of the read
// deadline: the server sends a reply's header and half its payload and then
// stalls past CallTimeout. The stream position is lost, so the call fails
// with the read error (not ErrCallTimeout), the connection is dead, and a
// second pending ticket fails with the same error.
func TestTimeoutInsideAFrameBreaksTheConnection(t *testing.T) {
	ms := startManualServer(t)
	cl, nc := ms.dial(t, Options{CallTimeout: 60 * time.Millisecond})
	lt1, req1 := ms.startOne(t, cl, wkey(0x11))
	lt2, _ := ms.startOne(t, cl, wkey(0x22))
	reply := lookupManyReply(&req1)
	if _, err := nc.Write(reply[:headerSize+(len(reply)-headerSize)/2]); err != nil {
		t.Fatal(err)
	}
	res := make([]flowserve.Result, 1)
	err := lt1.Wait(res, nil)
	if !errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, ErrCallTimeout) {
		t.Fatalf("Wait on a reply torn by the deadline = %v, want the read's deadline error", err)
	}
	if err != cl.Err() {
		t.Fatalf("Err() = %v, want the torn read's error %v", cl.Err(), err)
	}
	if err2 := lt2.Wait(res, nil); err2 != err {
		t.Fatalf("Wait on the other pending ticket = %v, want %v", err2, err)
	}
	if c := countsOf(cl); c.timeouts != 0 {
		t.Errorf("a torn stream was counted as %d per-call timeouts", c.timeouts)
	}
	assertConnDead(t, cl)
}

// waited is what a LookupTicket.Wait on another goroutine came back with.
type waited struct {
	res flowserve.Result
	err error
}

// waitAsReader waits on lt from a new goroutine and returns once that
// goroutine holds the connection's read token, so whoever waits next on the
// same connection does so as a follower.
func waitAsReader(t *testing.T, cl *Client, lt LookupTicket) <-chan waited {
	t.Helper()
	done := make(chan waited, 1)
	go func() {
		res := make([]flowserve.Result, 1)
		err := lt.Wait(res, nil)
		done <- waited{res[0], err}
	}()
	waitFor(t, "the waiter to take the read token", func() bool { return len(cl.conns[0].token) == 0 })
	return done
}

// TestFollowerTimesOutWhileAnotherCallerReads pins the per-call half of the
// timeout on a shared connection. Ticket A is started first and ticket B half
// a CallTimeout later; B's waiter takes the read token, so A's waiter follows
// on its own timer. The server answers neither until A has timed out: A gets
// ErrCallTimeout while B, still reading, then gets its own reply; A's reply,
// sent last, is drained and counted by the next call.
func TestFollowerTimesOutWhileAnotherCallerReads(t *testing.T) {
	const callTimeout = 200 * time.Millisecond
	ms := startManualServer(t)
	cl, nc := ms.dial(t, Options{CallTimeout: callTimeout})
	ltA, reqA := ms.startOne(t, cl, wkey(0xA1))
	time.Sleep(callTimeout / 2)
	ltB, reqB := ms.startOne(t, cl, wkey(0xB2))

	doneB := waitAsReader(t, cl, ltB)

	res := []flowserve.Result{{Value: 7, OK: true}}
	if err := ltA.Wait(res, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("follower's Wait = %v, want ErrCallTimeout", err)
	}
	if res[0] != (flowserve.Result{Value: 7, OK: true}) {
		t.Fatalf("a timed-out Wait wrote %+v into results", res[0])
	}
	select {
	case o := <-doneB:
		t.Fatalf("the reader returned (%+v, %v) before its reply was sent", o.res, o.err)
	default:
	}
	nc.Write(lookupManyReply(&reqB))
	if o := <-doneB; o.err != nil || o.res != (flowserve.Result{Value: 0xB2, OK: true}) {
		t.Fatalf("reader's Wait = (%+v, %v), want its own value 0xb2", o.res, o.err)
	}
	if c := countsOf(cl); c.timeouts != 1 || c.lateReplies != 0 || c.handoffs != 0 {
		t.Fatalf("counters = %+v, want exactly one timeout", c)
	}

	// A's reply lands now; the next call reads past it.
	nc.Write(lookupManyReply(&reqA))
	ltC, reqC := ms.startOne(t, cl, wkey(0xC3))
	nc.Write(lookupManyReply(&reqC))
	if err := ltC.Wait(res, nil); err != nil || res[0].Value != 0xC3 {
		t.Fatalf("Wait after the timeout = (%+v, %v), want value 0xc3", res[0], err)
	}
	if c := countsOf(cl); c.lateReplies != 1 {
		t.Fatalf("late_replies = %d after the late reply was drained, want 1", c.lateReplies)
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("a follower's timeout broke the client: %v", err)
	}
	if n := pendingCalls(cl.conns[0]); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
}

// TestHandoffsCounted pins flowwire.client.handoffs: a caller that reads its
// own replies hands nothing off, however many it has outstanding; a reply
// that one caller's read delivers to another caller waiting behind it is one.
func TestHandoffsCounted(t *testing.T) {
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	solo := dialTest(t, addr, Options{Conns: 1})
	for i := 0; i < 1000; i++ {
		if v, ok := solo.Lookup(wkey(1)); !ok || v != 11 {
			t.Fatalf("lookup %d = (%d,%v)", i, v, ok)
		}
	}
	if c := countsOf(solo); c != (clientCounts{}) {
		t.Fatalf("counters after 1000 calls from one goroutine = %+v, want zeroes", c)
	}

	// Two goroutines, one connection: A's request is ahead of B's on the
	// wire, B reads first, so A's reply crosses goroutines.
	ms := startManualServer(t)
	cl, nc := ms.dial(t, Options{})
	ltA, reqA := ms.startOne(t, cl, wkey(0xA1))
	ltB, reqB := ms.startOne(t, cl, wkey(0xB2))
	doneB := waitAsReader(t, cl, ltB)
	nc.Write(lookupManyReply(&reqA))
	res := make([]flowserve.Result, 1)
	if err := ltA.Wait(res, nil); err != nil || res[0].Value != 0xA1 {
		t.Fatalf("follower's Wait = (%+v, %v), want its own value 0xa1", res[0], err)
	}
	nc.Write(lookupManyReply(&reqB))
	if o := <-doneB; o.err != nil || o.res.Value != 0xB2 {
		t.Fatalf("reader's Wait = (%+v, %v), want its own value 0xb2", o.res, o.err)
	}
	if c := countsOf(cl); c != (clientCounts{handoffs: 1}) {
		t.Fatalf("counters = %+v, want exactly one hand-off", c)
	}
	snap := stats.NewSnapshot()
	cl.CollectInto(snap)
	if snap.Counter("flowwire.client.handoffs") != 1 {
		t.Fatalf("CollectInto counters = %v", snap.Counters)
	}
}

// TestTicketOnAConnectionKilledByAFailedWrite pins the failure nobody reads
// for: a ticket whose own request write failed is still a ticket, and with no
// reader goroutine to fail it, it fails from its own Wait — as does a ticket
// started before it — with the write's error.
func TestTicketOnAConnectionKilledByAFailedWrite(t *testing.T) {
	ms := startManualServer(t)
	cl, _ := ms.dial(t, Options{})
	lt1, _ := ms.startOne(t, cl, wkey(1))
	cl.conns[0].nc.Close() // the next write on the connection fails
	lt2, err := cl.StartLookupMany([][]byte{wkey(2)})
	if err != nil {
		t.Fatalf("a start whose write failed = %v, want a ticket", err)
	}
	if cl.Err() == nil {
		t.Fatal("a failed write left no sticky error")
	}
	res := make([]flowserve.Result, 1)
	for i, lt := range []LookupTicket{lt2, lt1} {
		if err := lt.Wait(res, nil); err == nil || err != cl.Err() {
			t.Fatalf("Wait %d = %v, want the write's error %v", i, err, cl.Err())
		}
	}
	assertConnDead(t, cl)
}

// TestDialStartsNoReaderGoroutine pins that a tcp client is goroutine-free:
// four connections dialed, none of them with a reader behind it. The server
// is one goroutine started before the count is taken.
func TestDialStartsNoReaderGoroutine(t *testing.T) {
	const conns = 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		// The dials complete in the listen backlog; the HELLO goes to one
		// connection of the pool, found by polling all four.
		var ncs [conns]net.Conn
		for i := range ncs {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			ncs[i] = nc
		}
		var f Frame
		for i := 0; ; i = (i + 1) % conns {
			ncs[i].SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			if _, err := ReadFrameInto(ncs[i], 0, &f, nil); err == nil {
				payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
				ncs[i].Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
				return
			} else if !errors.Is(err, os.ErrDeadlineExceeded) {
				return
			}
		}
	}()
	before := runtime.NumGoroutine()
	cl, err := DialEndpoint(Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}, Options{Conns: conns})
	if err != nil {
		t.Fatalf("DialEndpoint: %v", err)
	}
	defer cl.Close()
	<-served // the server goroutine is gone: anything above before-1 is the client's
	waitFor(t, "the dial's own goroutines to exit", func() bool { return runtime.NumGoroutine() <= before-1 })
}

// TestCallersShareOneConnectionUnderTimeouts is the property run for the read
// token: 8 goroutines on one connection against a server that holds a seeded
// 5 % of its replies past CallTimeout. Whoever happens to be reading, every
// call returns its own value or ErrCallTimeout; once every reply is on the
// wire and a last lookup has drained the stream, each timeout has its late
// reply and nothing is pending.
func TestCallersShareOneConnectionUnderTimeouts(t *testing.T) {
	const (
		callers, calls = 8, 100
		callTimeout    = 20 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(24)) // only the server's read loop draws from it
	addr, written := slowLookupServer(t, func(int) time.Duration {
		if rng.Intn(100) < 5 {
			return 3 * callTimeout
		}
		return 0
	})
	cl := dialTest(t, addr, Options{Conns: 1, CallTimeout: callTimeout})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				b := uint64(g*calls+i) % 256
				v, ok, err := lookupE(cl, wkey(b))
				if errors.Is(err, ErrCallTimeout) {
					continue
				}
				if err != nil || !ok || v != b {
					t.Errorf("caller %d call %d = (%#x,%v,%v), want its own value %#x", g, i, v, ok, err, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "every reply to be written", func() bool { return written.Load() == callers*calls })
	if v, ok := cl.Lookup(wkey(0x77)); !ok || v != 0x77 {
		t.Fatalf("draining lookup = (%#x,%v)", v, ok)
	}
	c := countsOf(cl)
	if c.timeouts != c.lateReplies || c.errors != 0 {
		t.Fatalf("counters = %+v, want every timeout matched by its late reply and no errors", c)
	}
	if c.timeouts == 0 {
		t.Error("no call timed out: the run exercised nothing")
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("per-call timeouts broke the client: %v", err)
	}
	if n := pendingCalls(cl.conns[0]); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
}

// TestStartRefusedBeforeTheConnection pins what a call checks locally: a
// wrong-length key, or a request of any op whose frame is over MaxFrame,
// fails the start with nothing registered or written, so there is no ticket
// to wait on, the connection keeps no oversized scratch and the client is as
// good as before.
func TestStartRefusedBeforeTheConnection(t *testing.T) {
	const maxFrame = 4096
	_, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	if err := tbl.Insert(wkey(1), 11); err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, addr, Options{Conns: 1, MaxFrame: maxFrame})
	c := cl.conns[0]
	sent := c.nextID // the HELLO; nothing else writes until the calls below

	big := make([][]byte, maxFrame/20+1)
	recs := make([]MigRecord, maxFrame/31+1)
	for i := range big {
		big[i] = wkey(1)
	}
	for i := range recs {
		recs[i] = MigRecord{Kind: MigUpsert, Value: uint64(i), Key: wkey(uint64(i))}
	}
	nodes := make([]Endpoint, maxFrame/16)
	for i := range nodes {
		nodes[i] = Endpoint{Transport: TransportTCP, Addr: "127.0.0.1:7411"}
	}
	m := UniformMap(nodes)
	if n := len(AppendShardMap(nil, m)); n <= maxFrame {
		t.Fatalf("the oversized shard map encodes to %d bytes, within MaxFrame", n)
	}
	for _, tc := range []struct {
		name string
		want error
		call func() error
	}{
		{"a 19-byte key", flowserve.ErrKeyLen, func() error {
			_, err := cl.StartLookupMany([][]byte{wkey(1), wkey(2)[:19]})
			return err
		}},
		{"a LOOKUP_MANY of " + strconv.Itoa(len(big)) + " keys", ErrFrameTooLarge, func() error {
			_, err := cl.StartLookupMany(big)
			return err
		}},
		{"a MIG_APPLY of " + strconv.Itoa(len(recs)) + " records", ErrFrameTooLarge, func() error {
			_, _, err := cl.MigApply(recs)
			return err
		}},
		{"a MAP_UPDATE of " + strconv.Itoa(len(nodes)) + " nodes", ErrFrameTooLarge, func() error {
			return cl.PushShardMap(m)
		}},
	} {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s = %v, want %v", tc.name, err, tc.want)
		}
		c.wmu.Lock()
		if c.nextID != sent {
			t.Errorf("%s advanced the connection's reqID from %d to %d", tc.name, sent, c.nextID)
		}
		if cap(c.wbuf) > maxFrame {
			t.Errorf("%s left the connection a %d-byte scratch", tc.name, cap(c.wbuf))
		}
		c.wmu.Unlock()
		if n := pendingCalls(c); n != 0 {
			t.Errorf("%s left %d calls pending", tc.name, n)
		}
		if err := cl.Err(); err != nil {
			t.Fatalf("refusing %s broke the client: %v", tc.name, err)
		}
		if c := countsOf(cl); c != (clientCounts{}) {
			t.Fatalf("counters after refusing %s = %+v, want zeroes", tc.name, c)
		}
		if v, ok := cl.Lookup(wkey(1)); !ok || v != 11 {
			t.Fatalf("Lookup after refusing %s = (%d,%v), want (11,true)", tc.name, v, ok)
		}
		sent++ // the Lookup
	}
}

// TestBadRepliesStickyOrNot pins which malformed replies break the client.
// A reply for another op, or a LOOKUP_MANY reply whose length or count does
// not match the request, means the stream can no longer be trusted: the call
// fails and Err() is set. A STATS, SHARD_MAP or MIG_STATUS payload that its
// parser rejects fails that call alone, and the client keeps serving.
func TestBadRepliesStickyOrNot(t *testing.T) {
	lookup := func(cl *Client) error {
		_, _, err := lookupE(cl, wkey(7))
		return err
	}
	reply := func(op Op, payload []byte) func(req *Frame) []byte {
		return func(req *Frame) []byte {
			return AppendFrame(nil, &Frame{Op: op, ReqID: req.ReqID, Payload: payload})
		}
	}
	oneHit := appendLookupManyReply(nil, []flowserve.Result{{OK: true, Value: 1}})
	twoHits := appendLookupManyReply(nil, []flowserve.Result{{OK: true, Value: 1}, {OK: true, Value: 2}})
	countTwo := binary.LittleEndian.AppendUint32(nil, 2)
	countTwo = append(countTwo, oneHit[4:]...) // one result's bytes claiming two
	for _, tc := range []struct {
		name   string
		call   func(cl *Client) error
		reply  func(req *Frame) []byte
		sticky bool
	}{
		{"another op", lookup, reply(OpStats, oneHit), true},
		{"LOOKUP_MANY of the wrong length", lookup, reply(OpLookupMany, twoHits), true},
		{"LOOKUP_MANY whose count disagrees", lookup, reply(OpLookupMany, countTwo), true},
		{"STATS that is not JSON", func(cl *Client) error {
			_, err := cl.StatsSnapshot()
			return err
		}, reply(OpStats, []byte("{not json")), false},
		{"SHARD_MAP that does not parse", func(cl *Client) error {
			_, err := cl.FetchShardMap()
			return err
		}, reply(OpShardMap, []byte{1, 2, 3}), false},
		{"MIG_STATUS that is not JSON", func(cl *Client) error {
			_, err := cl.MigrateStatus()
			return err
		}, reply(OpMigStatus, []byte("{not json")), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := startManualServer(t)
			cl, nc := ms.dial(t, Options{})
			errc := make(chan error, 1)
			go func() { errc <- tc.call(cl) }()
			req := <-ms.reqs
			nc.Write(tc.reply(&req))
			if err := <-errc; err == nil {
				t.Fatal("a malformed reply was accepted")
			}
			if tc.sticky {
				if cl.Err() == nil {
					t.Fatal("the malformed reply left the client serving")
				}
				return
			}
			if err := cl.Err(); err != nil {
				t.Fatalf("a per-call decode failure broke the client: %v", err)
			}
			type answer struct {
				value uint64
				ok    bool
				err   error
			}
			got := make(chan answer, 1)
			go func() {
				v, ok, err := lookupE(cl, wkey(7))
				got <- answer{v, ok, err}
			}()
			req = <-ms.reqs
			nc.Write(lookupManyReply(&req))
			if a := <-got; a.err != nil || !a.ok || a.value != uint64(wkey(7)[0]) {
				t.Fatalf("lookup after the failure = (%d,%v,%v), want (%d,true,nil)", a.value, a.ok, a.err, wkey(7)[0])
			}
		})
	}
}

// TestLookupIsAOneKeyLookupMany pins what a blocking Client.Lookup puts on
// the wire: one LOOKUP_MANY frame carrying its one key, which a server's
// coalescer counts as exactly one frame and one key.
func TestLookupIsAOneKeyLookupMany(t *testing.T) {
	t.Run("frame", func(t *testing.T) {
		ms := startManualServer(t)
		cl, nc := ms.dial(t, Options{})
		type answer struct {
			value uint64
			ok    bool
		}
		got := make(chan answer, 1)
		go func() {
			v, ok := cl.Lookup(wkey(0x42))
			got <- answer{v, ok}
		}()
		req := <-ms.reqs
		keys, st := parseLookupManyReq(req.Payload, 20, nil)
		if req.Op != OpLookupMany || st != StatusOK || len(keys) != 1 || string(keys[0]) != string(wkey(0x42)) {
			t.Fatalf("Lookup sent a %s frame whose payload parses to %d keys (%s), want one LOOKUP_MANY key", req.Op, len(keys), st)
		}
		nc.Write(lookupManyReply(&req))
		if a := <-got; !a.ok || a.value != 0x42 {
			t.Fatalf("Lookup = (%#x,%v), want (0x42,true)", a.value, a.ok)
		}
	})
	t.Run("coalescer", func(t *testing.T) {
		srv, tbl, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
		if err := tbl.Insert(wkey(1), 11); err != nil {
			t.Fatal(err)
		}
		cl := dialTest(t, addr, Options{})
		counts := func() (frames, keys uint64) {
			snap := stats.NewSnapshot()
			srv.CollectInto(snap)
			return snap.Counter("flowwire.coalesce.frames"), snap.Counter("flowwire.coalesce.keys")
		}
		frames0, keys0 := counts()
		if v, ok := cl.Lookup(wkey(1)); !ok || v != 11 {
			t.Fatalf("Lookup = (%d,%v), want (11,true)", v, ok)
		}
		if frames, keys := counts(); frames-frames0 != 1 || keys-keys0 != 1 {
			t.Fatalf("one Lookup moved %d frames and %d keys through the coalescer, want 1 and 1", frames-frames0, keys-keys0)
		}
	})
}

// TestWriteErrorMarksConnDead pins the post-write-error contract: once a
// write fails (here: the peer stops reading and the write deadline fires
// with the socket buffers full), the connection is explicitly dead — later
// calls fail fast instead of appending frames to a torn stream — and
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
		if _, err := ReadFrameInto(nc, 0, &f, nil); err == nil && f.Op == OpHello {
			payload := appendHelloReply(nil, HelloInfo{KeyLen: 20, Shards: 1, Capacity: 64})
			nc.Write(AppendFrame(nil, &Frame{Op: OpHello, ReqID: f.ReqID, Payload: payload}))
		}
		accepted <- nc
	}()
	cl, err := DialEndpoint(Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}, Options{
		WriteTimeout: 50 * time.Millisecond,
		CallTimeout:  10 * time.Millisecond,
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
	if countsOf(cl).errors == 0 {
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
	if c := countsOf(cl); c.errors != 0 {
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
	if c := countsOf(cl); c.errors != 0 {
		t.Fatalf("healthy run counted errors: %+v", c)
	}

	srv.Close()

	keys := [][]byte{wkey(1), wkey(2)}
	results := make([]flowserve.Result, 2)
	deadline := time.Now().Add(5 * time.Second)
	for countsOf(cl).errors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no coerced failure was ever counted")
		}
		if hits := cl.LookupMany(keys, results); hits != 0 {
			t.Fatalf("hits after server close = %d", hits)
		}
	}
	before := countsOf(cl).errors
	if _, ok := cl.Lookup(wkey(1)); ok {
		t.Fatal("hit after server close")
	}
	if cl.Update(wkey(1), 2) || cl.Delete(wkey(1)) {
		t.Fatal("mutation succeeded after server close")
	}
	if got := countsOf(cl).errors; got < before+3 {
		t.Fatalf("errors after coerced lookup+update+delete = %d, want >= %d", got, before+3)
	}
	if err := cl.Err(); err == nil {
		t.Fatal("server close left no sticky error")
	}
}

// TestOversizedRequestRefusedLocally pins the request side of MaxFrame: a
// batch whose frame would exceed it is refused before it reaches the
// connection. Sent, it would earn ERR_OVERSIZED and a close, and every
// goroutine sharing the pool would serve misses from then on. LookupMany
// coerces the refusal to misses and counts it as one error.
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
	if _, err := cl.StartLookupMany(keys); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("StartLookupMany of %d keys = %v, want ErrFrameTooLarge", len(keys), err)
	}
	if hits := cl.LookupMany(keys, results); hits != 0 || results[0].OK {
		t.Fatalf("a refused batch reported %d hits, first result %+v", hits, results[0])
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("a per-call refusal broke the client: %v", err)
	}
	if v, ok := cl.Lookup(wkey(1)); !ok || v != 11 {
		t.Fatalf("Lookup after the refusal = (%d,%v), want (11,true)", v, ok)
	}
	if c := countsOf(cl); c.lateReplies != 0 || c.errors != 1 {
		t.Fatalf("counters after the refusal = %+v, want one error and no late replies", c)
	}
}
