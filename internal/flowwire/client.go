package flowwire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"halo/internal/flowserve"
	"halo/internal/stats"
)

// Client errors.
var (
	// ErrClientClosed reports a call on a Close()d client.
	ErrClientClosed = errors.New("flowwire: client closed")
	// ErrConnClosed reports the server hanging up with calls in flight
	// (e.g. it drained); the first underlying cause is kept by Err.
	ErrConnClosed = errors.New("flowwire: connection closed by server")
	// ErrCallTimeout reports a reply not arriving inside CallTimeout. A
	// timeout is per-call, not sticky: the connection keeps serving other
	// calls, and the late reply (if it ever lands) is counted and
	// discarded — never delivered to a different caller.
	ErrCallTimeout = errors.New("flowwire: call timed out")
)

// Options parametrises DialEndpoint. The zero value works.
type Options struct {
	// Conns is the connection-pool size (default 1). Calls round-robin
	// across the pool; concurrent calls on one connection pipeline —
	// each is tagged with a reqID and matched to its reply, so many
	// goroutines can share few sockets.
	Conns int
	// DialTimeout bounds each connect + the HELLO handshake (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each request write (default 30s).
	WriteTimeout time.Duration
	// CallTimeout bounds the wait for a reply (default 60s).
	CallTimeout time.Duration
	// MaxFrame bounds frames in both directions (default DefaultMaxFrame):
	// a longer reply breaks the connection, a longer request is refused
	// locally with ErrFrameTooLarge before it is sent.
	MaxFrame uint32
}

func (o *Options) applyDefaults() error {
	if err := nonNegative("Options.DialTimeout", o.DialTimeout); err != nil {
		return err
	}
	if err := nonNegative("Options.WriteTimeout", o.WriteTimeout); err != nil {
		return err
	}
	if err := nonNegative("Options.CallTimeout", o.CallTimeout); err != nil {
		return err
	}
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 60 * time.Second
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	return nil
}

// clientCounters tracks client-side failure visibility. The Reader/Writer
// interfaces have error-free read signatures, so transport failures are
// coerced into misses — these counters make that coercion observable: a
// load driver that sees hits drop can tell a cold table from a broken
// client (flowload fails a sweep point on a nonzero flowwire.client.errors).
type clientCounters struct {
	errors      atomic.Uint64 // calls coerced into a miss/false by a failure
	timeouts    atomic.Uint64 // calls that hit CallTimeout
	lateReplies atomic.Uint64 // replies discarded: no caller was waiting
	handoffs    atomic.Uint64 // replies a caller got from another caller's read
}

// Client is a remote flowserve table: it implements flowserve.Reader and
// flowserve.Writer over the wire protocol, so a *Client drops in wherever a
// *flowserve.Table serves (flowload's -remote mode drives it through the
// same Reader/Writer code path the cluster router takes). It has no goroutines: a call writes its request and then reads
// the connection until its own reply arrives, so a dead peer is noticed by
// the next call, not in the background. Connection-level transport failures
// are sticky: the first one breaks the client, every later call fails fast,
// and Err reports the cause. Lookups on a broken client return misses, mirroring the
// interface's error-free read signatures — and every such coercion is
// counted (CollectInto), so callers can gate on the delta.
type Client struct {
	opts  Options
	hello HelloInfo
	conns []*cliConn
	rr    atomic.Uint64 // round-robin cursor

	calls sync.Pool // *pcall: pooled in-flight call slots

	errOnce sync.Once
	err     atomic.Value // error: first transport failure
	closed  atomic.Bool
	c       clientCounters
}

var (
	_ flowserve.Reader = (*Client)(nil)
	_ flowserve.Writer = (*Client)(nil)
)

// pcall is one in-flight call's slot: a reusable payload buffer the
// connection's reader fills (the reply's Payload aliases it — zero copies,
// zero steady-state allocations), the channel a reader that is not the
// slot's own caller delivers on, and the timer a caller arms only when it
// has to wait behind such a reader. Ownership is explicit: a pcall
// registered in a conn's pending map is owned by the reader from the moment
// it is removed from the map until the reply is returned or sent; before
// removal the caller can reclaim it (timeout path) by deleting the map entry
// under pmu. That handshake is what makes a late reply unable to reach the
// wrong caller: a pcall is only ever recycled by whichever side provably owns
// it.
type pcall struct {
	ch    chan Frame
	buf   []byte
	timer *time.Timer
}

func (cl *Client) putCall(pc *pcall) {
	if pc.timer != nil {
		pc.timer.Stop()
	}
	cl.calls.Put(pc)
}

// cliConn is one pooled connection. Writes serialise on wmu (request encode
// into the conn-owned wbuf scratch, reqID assignment, one Write). Reads
// belong to whoever holds the read token: token is a one-slot channel that
// holds the token while nobody reads, and the goroutine that takes it owns
// br, rf and discard — the stream position — until it puts the token back.
type cliConn struct {
	cl     *Client
	nc     net.Conn
	wmu    sync.Mutex
	wbuf   []byte // request frame scratch, guarded by wmu
	nextID uint64

	token   chan struct{}
	br      *bufio.Reader
	rf      Frame  // reply header scratch; a local would escape into the io.Reader call
	discard []byte // where a late reply's payload goes

	pmu     sync.Mutex
	pending map[uint64]*pcall
	dead    bool
	deadErr error
}

// DialEndpoint connects a pool of opts.Conns connections to the flowserved
// at ep and performs the HELLO handshake to learn the table geometry.
func DialEndpoint(ep Endpoint, opts Options) (*Client, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	cl := &Client{opts: opts}
	cl.calls.New = func() any { return &pcall{ch: make(chan Frame, 1)} }
	for i := 0; i < opts.Conns; i++ {
		nc, err := dialTransport(ep, opts.DialTimeout)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("flowwire: dial %s: %w", ep, err)
		}
		c := &cliConn{
			cl: cl, nc: nc, br: bufio.NewReaderSize(nc, 64<<10),
			token: make(chan struct{}, 1), pending: make(map[uint64]*pcall),
		}
		c.token <- struct{}{}
		cl.conns = append(cl.conns, c)
	}
	err := cl.do(OpHello, nil, helloReplyLen, func(p []byte) (err error) {
		cl.hello, err = parseHelloReply(p)
		return err
	})
	if err == nil && (cl.hello.KeyLen <= 0 || cl.hello.KeyLen > flowserve.MaxKeyLen) {
		err = fmt.Errorf("reply reports key length %d", cl.hello.KeyLen)
	}
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("flowwire: HELLO: %w", err)
	}
	return cl, nil
}

// Hello returns the table geometry reported at dial time.
func (cl *Client) Hello() HelloInfo { return cl.hello }

// KeyLen returns the remote table's fixed key length.
func (cl *Client) KeyLen() int { return cl.hello.KeyLen }

// Err returns the first transport failure, or nil. A load driver should
// check it after a run: a broken client serves misses, not panics.
func (cl *Client) Err() error {
	if e, ok := cl.err.Load().(error); ok {
		return e
	}
	return nil
}

// CollectInto publishes the client-side counters under flowwire.client.*.
func (cl *Client) CollectInto(snap *stats.Snapshot) {
	snap.Add("flowwire.client.errors", cl.c.errors.Load())
	snap.Add("flowwire.client.timeouts", cl.c.timeouts.Load())
	snap.Add("flowwire.client.late_replies", cl.c.lateReplies.Load())
	snap.Add("flowwire.client.handoffs", cl.c.handoffs.Load())
}

func (cl *Client) fail(err error) {
	cl.errOnce.Do(func() { cl.err.Store(err) })
}

// Close tears the pool down. In-flight calls fail with ErrClientClosed.
func (cl *Client) Close() error {
	cl.closed.Store(true)
	for _, c := range cl.conns {
		c.nc.Close()
	}
	return nil
}

// ticket is a started call: the slot its reply will land in, the connection
// it was written to, the reqID that ties the two together and the instant the
// call times out. Between start and wait the slot belongs to the connection
// (registered in pending, or claimed by a reader); wait takes it back. A
// ticket is waited exactly once: an unwaited one leaks its slot and its
// pending entry, a second wait would read a slot some other call already owns.
type ticket struct {
	pc       *pcall
	c        *cliConn
	id       uint64
	deadline time.Time
}

// start is the first half of the exchange: on a pooled connection it encodes
// the request, registers a call slot and writes the frame, without waiting for
// the reply. The call timeout runs from here. enc appends the payload (nil:
// none) to the connection's scratch after a header-sized gap, and the header
// is then written into that gap, so the frame is built once and goes out in
// one Write. A request longer than MaxFrame is refused once encoded: the
// server would answer ERR_OVERSIZED and hang up on every caller sharing the
// pool, so the refusal is per-call, not sticky, and the oversized scratch is
// dropped. An error means nothing was registered or written and there is no
// ticket to wait on; a write that fails after registration is still a ticket,
// and wait reports the connection's error.
func (cl *Client) start(op Op, enc func(dst []byte) []byte) (ticket, error) {
	if cl.closed.Load() {
		return ticket{}, ErrClientClosed
	}
	if err := cl.Err(); err != nil {
		return ticket{}, err
	}
	c := cl.conns[cl.rr.Add(1)%uint64(len(cl.conns))]

	c.wmu.Lock()
	c.wbuf = append(c.wbuf[:0], make([]byte, headerSize)...)
	if enc != nil {
		c.wbuf = enc(c.wbuf)
	}
	if n := uint64(len(c.wbuf)); n > uint64(cl.opts.MaxFrame) {
		c.wbuf = nil
		c.wmu.Unlock()
		return ticket{}, fmt.Errorf("%w: %s request of %d bytes (limit %d)", ErrFrameTooLarge, op, n, cl.opts.MaxFrame)
	}
	c.pmu.Lock()
	if c.dead {
		err := c.deadErr
		c.pmu.Unlock()
		c.wmu.Unlock()
		return ticket{}, err
	}
	c.nextID++
	id := c.nextID
	pc := cl.calls.Get().(*pcall)
	c.pending[id] = pc
	c.pmu.Unlock()
	AppendFrameHeader(c.wbuf[:0], op, StatusOK, id, len(c.wbuf)-headerSize)
	// Every write arms its own deadline first and nothing else writes to the
	// connection, so the deadline is never cleared: a stale one cannot fire
	// under a later write.
	now := time.Now()
	err := c.nc.SetWriteDeadline(now.Add(cl.opts.WriteTimeout))
	if err == nil {
		_, err = c.nc.Write(c.wbuf)
	}
	if err != nil {
		// Part of the frame may be on the wire; this connection must never
		// write again. Mark it dead before releasing wmu so the next caller
		// fails fast instead of appending to a torn stream.
		c.pmu.Lock()
		if !c.dead {
			c.dead = true
			c.deadErr = err
		}
		c.pmu.Unlock()
		cl.fail(err)
		c.nc.Close() // whoever reads next fails the registered calls
	}
	c.wmu.Unlock()
	return ticket{pc: pc, c: c, id: id, deadline: now.Add(cl.opts.CallTimeout)}, nil
}

// wait is the second half of the exchange: it blocks until t's reply, the
// call timeout or the death of t's connection. There is no reader goroutine:
// the caller takes the connection's read token and reads its own reply. Only
// a caller that finds the token taken waits as a follower — on its slot, its
// timer (armed here, so a lone caller touches none) and the token, which the
// reader hands on when it returns. On success the returned pcall owns
// f.Payload's backing buffer and finish releases it; on error the pcall has
// already been dealt with and nil is returned.
func (cl *Client) wait(t ticket) (*pcall, Frame, error) {
	pc, c := t.pc, t.c
	select {
	case <-c.token:
	default:
		rearm(&pc.timer, time.Until(t.deadline))
		select {
		case <-c.token:
		case f, ok := <-pc.ch:
			if ok {
				cl.c.handoffs.Add(1)
			}
			return c.delivered(pc, f, ok)
		case <-pc.timer.C:
			return nil, Frame{}, c.timedOut(t)
		}
	}
	pc, f, err := c.read(t)
	c.token <- struct{}{}
	return pc, f, err
}

// delivered is the receive from a call's slot: the reply a reader sent, or
// the closed channel with which the connection's death fails the call. A slot
// whose channel is closed is dropped, never recycled — the pool must only hold
// live slots.
func (c *cliConn) delivered(pc *pcall, f Frame, ok bool) (*pcall, Frame, error) {
	if ok {
		return pc, f, nil
	}
	c.pmu.Lock()
	err := c.deadErr
	c.pmu.Unlock()
	return nil, Frame{}, err
}

// timedOut takes t's slot back after its timeout. A slot still registered is
// the caller's again once its entry is deleted under pmu: nothing will ever be
// sent on it. Otherwise a reader claimed it first (only a follower can find
// that) and a send or a conn-death close is committed: take it and discard,
// so the reply cannot leak into the buffered channel and the slot is not
// recycled while the reader can still touch it.
func (c *cliConn) timedOut(t ticket) error {
	c.cl.c.timeouts.Add(1)
	c.pmu.Lock()
	_, registered := c.pending[t.id]
	delete(c.pending, t.id)
	c.pmu.Unlock()
	if !registered {
		if _, ok := <-t.pc.ch; !ok {
			return ErrCallTimeout
		}
		c.cl.c.lateReplies.Add(1)
	}
	c.cl.putCall(t.pc)
	return ErrCallTimeout
}

// read makes the caller, who holds c's token, the connection's reader until
// t's reply arrives: every other frame goes to the slot registered under its
// reqID, and one that matches no waiting call lost the race with its call's
// timeout (or is a server fault) — its payload is drained,
// flowwire.client.late_replies counts it and the connection keeps serving. It
// can never reach a different caller, because its slot left pending under pmu
// before the slot was reclaimed.
//
// The timeout is the connection's read deadline. Nothing of a frame is
// consumed before its whole header is buffered, so a deadline between frames
// fails this call alone and leaves the stream where the next reader expects
// it; a deadline or any other error inside a frame tears the stream, breaks
// the client and fails every pending call on the connection.
func (c *cliConn) read(t ticket) (*pcall, Frame, error) {
	select {
	case f, ok := <-t.pc.ch: // an earlier reader got there first
		return c.delivered(t.pc, f, ok)
	default:
	}
	c.nc.SetReadDeadline(t.deadline) // a dead connection fails the Peek below
	for {
		if hdr, err := c.br.Peek(headerSize); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return nil, Frame{}, c.timedOut(t)
			}
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, Frame{}, c.kill(err)
		}
		plen, err := ReadFrameHeader(c.br, c.cl.opts.MaxFrame, &c.rf)
		if err != nil {
			return nil, Frame{}, c.kill(err)
		}
		c.pmu.Lock()
		pc := c.pending[c.rf.ReqID]
		delete(c.pending, c.rf.ReqID)
		c.pmu.Unlock()
		// The reader owns pc from the delete above until it returns or sends
		// it: the payload lands in pc's reusable buffer with no copy between.
		buf := &c.discard
		if pc != nil {
			buf = &pc.buf
		} else {
			c.cl.c.lateReplies.Add(1)
		}
		if cap(*buf) < plen {
			*buf = make([]byte, plen)
		}
		*buf = (*buf)[:plen]
		if _, err := io.ReadFull(c.br, *buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			err = c.kill(fmt.Errorf("flowwire: reply torn inside a frame: %w", err))
			if pc != nil {
				close(pc.ch) // claimed but undeliverable (harmless on the reader's own slot, which is dropped)
			}
			return nil, Frame{}, err
		}
		c.rf.Payload = *buf
		if pc == t.pc {
			return pc, c.rf, nil
		}
		if pc != nil {
			pc.ch <- c.rf
		}
	}
}

// kill breaks the connection on the reader's error and fails every call
// pending on it by closing its slot's channel ("no reply; see deadErr"). It
// returns the connection's error: cause, unless the client was closed or a
// failed write killed the connection first.
func (c *cliConn) kill(cause error) error {
	switch {
	case c.cl.closed.Load():
		cause = ErrClientClosed
	case cause == io.EOF:
		cause = ErrConnClosed
	}
	if cause != ErrClientClosed {
		c.cl.fail(cause)
	}
	c.pmu.Lock()
	if !c.dead {
		c.dead, c.deadErr = true, cause
	}
	cause = c.deadErr
	waiting := c.pending
	c.pending = nil
	c.pmu.Unlock()
	c.nc.Close()
	for _, pc := range waiting {
		close(pc.ch)
	}
	return cause
}

// rearm makes *tp a timer that fires after d, reusing the one already there.
// The timer has a single owner and is not being received from, so
// drain-before-Reset is the safe reuse pattern.
func rearm(tp **time.Timer, d time.Duration) {
	t := *tp
	if t == nil {
		*tp = time.NewTimer(d)
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// replyErr maps a non-OK reply onto the typed error vocabulary. WRONG_SHARD
// replies carry the server's map epoch in the payload and become a
// *WrongShardError — the redirect the cluster router follows; everything
// else goes through Status.Err.
func replyErr(f *Frame, op Op) error {
	if f.Status == StatusErrWrongShard {
		return parseWrongShard(f.Payload)
	}
	return f.Status.Err(op)
}

// anyLen is finish's wantLen for the replies whose length only their own
// payload knows (STATS, SHARD_MAP, MIG_STATUS).
const anyLen = -1

// finish is the second half of every exchange: it waits for t's reply,
// validates it and hands its payload to dec (nil: nothing to decode). A
// non-OK status becomes the typed error, and the reply must be for op and
// exactly wantLen payload bytes long; one that fails those two checks means
// the stream can no longer be trusted, so it breaks the client. The payload
// aliases the call slot's buffer, valid only inside dec; whether a decode
// error is sticky is dec's to say. finish releases the slot on every path.
func (cl *Client) finish(t ticket, op Op, wantLen int, dec func(p []byte) error) error {
	pc, f, err := cl.wait(t)
	if err != nil {
		return err
	}
	switch {
	case f.Op != op:
		err = fmt.Errorf("flowwire: reply op %s to a %s request", f.Op, op)
		cl.fail(err)
	case f.Status != StatusOK:
		err = replyErr(&f, op)
	case wantLen != anyLen && len(f.Payload) != wantLen:
		err = fmt.Errorf("flowwire: %s reply payload is %d bytes, want %d", op, len(f.Payload), wantLen)
		cl.fail(err)
	case dec != nil:
		err = dec(f.Payload)
	}
	cl.putCall(pc)
	return err
}

// do is the one blocking exchange every op method but the lookups goes
// through: encode and send the request on a pooled connection (start), then
// wait for, validate and decode its reply (finish).
func (cl *Client) do(op Op, enc func(dst []byte) []byte, wantLen int, dec func(p []byte) error) error {
	t, err := cl.start(op, enc)
	if err != nil {
		return err
	}
	return cl.finish(t, op, wantLen, dec)
}

// count makes a failure that an error-free Reader/Writer signature is about
// to coerce into a miss/false visible in flowwire.client.errors. A
// wrong-length key is the caller's miss, not a failure.
func (cl *Client) count(err error) {
	if err != nil && !errors.Is(err, flowserve.ErrKeyLen) {
		cl.c.errors.Add(1)
	}
}

// Lookup implements flowserve.Reader: a blocking single-key remote lookup
// (the paper's LOOKUP_B), sent as a one-key LOOKUP_MANY frame and waited on
// at once. Wrong-length keys are misses; transport failures are misses too,
// and are counted in flowwire.client.errors.
func (cl *Client) Lookup(key []byte) (uint64, bool) {
	keys, res := [1][]byte{key}, [1]flowserve.Result{}
	cl.LookupMany(keys[:], res[:])
	return res[0].Value, res[0].OK
}

// validKeys returns the keys of length keyLen and their indexes in keys.
func validKeys(keys [][]byte, keyLen int) (valid [][]byte, idx []int) {
	for j, k := range keys {
		if len(k) == keyLen {
			valid = append(valid, k)
			idx = append(idx, j)
		}
	}
	return valid, idx
}

// LookupTicket is a LOOKUP_MANY request that is on the wire and has not been
// collected yet — the wire analogue of the paper's LOOKUP_NB, with Wait as
// its SNAPSHOT_READ. One goroutine can start a batch on each of several
// clients, or several on one, and only then wait for the replies. A ticket
// from a successful StartLookupMany must be waited exactly once, whatever
// happened to the tickets started around it: until then it holds a call slot
// and an entry in its connection's pending map.
type LookupTicket struct {
	t ticket
	n int // keys sent
}

// StartLookupMany writes one LOOKUP_MANY frame carrying keys and returns
// without waiting for the reply. Every key must be KeyLen bytes long: a
// wrong-length key fails the start with ErrKeyLen before a connection is
// touched, and a batch too large for MaxFrame with ErrFrameTooLarge before a
// byte is written. The keys are encoded straight into the connection's
// request scratch.
func (cl *Client) StartLookupMany(keys [][]byte) (LookupTicket, error) {
	keyLen := cl.hello.KeyLen
	for _, k := range keys {
		if len(k) != keyLen {
			return LookupTicket{}, flowserve.ErrKeyLen
		}
	}
	t, err := cl.start(OpLookupMany, func(dst []byte) []byte { return appendLookupManyReq(dst, keys, keyLen) })
	return LookupTicket{t: t, n: len(keys)}, err
}

// Wait collects the reply: key j's result lands in results[idx[j]] — idx has
// one entry per key started — or in results[j] when idx is nil. On a typed
// error reply (WRONG_SHARD during a shard-map epoch change), a timeout or a
// transport failure, results is left untouched and the error returned. The
// reply is parsed straight out of the call slot's reused buffer; a reply of
// the right length whose count disagrees breaks the client.
func (lt LookupTicket) Wait(results []flowserve.Result, idx []int) error {
	cl := lt.t.c.cl
	return cl.finish(lt.t, OpLookupMany, 4+9*lt.n, func(p []byte) error {
		// finish checked the length, so a parse that succeeds filled all lt.n.
		_, err := parseLookupManyReply(p, results, idx)
		if err != nil {
			cl.fail(err)
		}
		return err
	})
}

// LookupMany implements flowserve.Reader: all keys travel in one
// LOOKUP_MANY frame (the paper's batched LOOKUP_NB), with wrong-length keys
// answered locally as misses. On a typed error reply, a refusal or a
// transport failure every result is a miss and flowwire.client.errors counts
// the call. The request is encoded straight into the connection's scratch and
// the reply parsed out of the call slot's reused buffer — the steady-state
// batch path allocates nothing. Callers that need the error (the cluster
// router) start and wait a LookupTicket instead.
func (cl *Client) LookupMany(keys [][]byte, results []flowserve.Result) int {
	results = results[:len(keys)]
	// Zeroed up front, so every early return below leaves misses behind.
	clear(results)
	if len(keys) == 0 {
		return 0
	}
	var idx []int // nil on the common all-valid path
	lt, err := cl.StartLookupMany(keys)
	if errors.Is(err, flowserve.ErrKeyLen) {
		var valid [][]byte
		if valid, idx = validKeys(keys, cl.hello.KeyLen); len(valid) == 0 {
			return 0
		}
		lt, err = cl.StartLookupMany(valid)
	}
	if err == nil {
		err = lt.Wait(results, idx)
	}
	if err != nil {
		cl.count(err)
		return 0
	}
	hits := 0
	for _, r := range results {
		if r.OK {
			hits++
		}
	}
	return hits
}

// mutate is the INSERT/UPDATE exchange: a value+key payload and, for
// UPDATE, the one-byte found reply.
func (cl *Client) mutate(op Op, key []byte, value uint64, wantLen int) (found bool, err error) {
	if len(key) != cl.hello.KeyLen {
		return false, flowserve.ErrKeyLen
	}
	err = cl.do(op, func(dst []byte) []byte {
		return append(binary.LittleEndian.AppendUint64(dst, value), key...)
	}, wantLen, func(p []byte) error {
		found = len(p) == 1 && p[0] != 0
		return nil
	})
	return found, err
}

// Insert implements flowserve.Writer over the wire. Table-semantics
// failures come back as the flowserve errors (ErrKeyExists, ErrTableFull,
// ErrKeyLen); a redirect as *WrongShardError; transport failures as the
// underlying error.
func (cl *Client) Insert(key []byte, value uint64) error {
	_, err := cl.mutate(OpInsert, key, value, 0)
	return err
}

// UpdateE is Update with the error surfaced (WRONG_SHARD redirect, transport
// failure) so the cluster router can re-route instead of reporting a miss.
func (cl *Client) UpdateE(key []byte, value uint64) (bool, error) {
	return cl.mutate(OpUpdate, key, value, 1)
}

// Update implements flowserve.Writer; false on absent key or failure
// (failures counted in flowwire.client.errors).
func (cl *Client) Update(key []byte, value uint64) bool {
	found, err := cl.UpdateE(key, value)
	cl.count(err)
	return found
}

// DeleteE is Delete with the error surfaced, mirroring UpdateE.
func (cl *Client) DeleteE(key []byte) (found bool, err error) {
	if len(key) != cl.hello.KeyLen {
		return false, flowserve.ErrKeyLen
	}
	err = cl.do(OpDelete, func(dst []byte) []byte { return append(dst, key...) }, 1, func(p []byte) error {
		found = p[0] != 0
		return nil
	})
	return found, err
}

// Delete implements flowserve.Writer; false on absent key or failure
// (failures counted in flowwire.client.errors).
func (cl *Client) Delete(key []byte) bool {
	found, err := cl.DeleteE(key)
	cl.count(err)
	return found
}

// StatsSnapshot fetches the server's stats as a typed stats.Snapshot —
// counters (flowwire.* and flowserve.* names) plus histograms — via the
// STATS op. The cluster router merges per-node snapshots into its rollup
// with stats.Snapshot.Merge, the same code path CollectInto feeds.
func (cl *Client) StatsSnapshot() (*stats.Snapshot, error) {
	snap := stats.NewSnapshot()
	err := cl.do(OpStats, nil, anyLen, func(p []byte) error {
		if err := json.Unmarshal(p, snap); err != nil {
			return fmt.Errorf("flowwire: STATS payload: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// FetchShardMap fetches the node's installed shard map via the SHARD_MAP op.
// A standalone (non-cluster) node reports a nil map at epoch 0.
func (cl *Client) FetchShardMap() (m *ShardMap, err error) {
	err = cl.do(OpShardMap, nil, anyLen, func(p []byte) (err error) {
		if len(p) > 0 {
			m, err = ParseShardMap(p)
		}
		return err
	})
	return m, err
}

// PushShardMap installs a shard map on the node via the MAP_UPDATE op. On
// the losing side of a migration the reply gates the handoff: the server
// only replies after the migration queue for the surrendered range has fully
// drained into the gaining node, so a returned nil error IS the zero-loss
// point of the cutover.
func (cl *Client) PushShardMap(m *ShardMap) error {
	return cl.do(OpMapUpdate, func(dst []byte) []byte { return AppendShardMap(dst, m) }, 0, nil)
}

// MigrateStart asks the node (the losing side A) to begin migrating the hash
// range rg to the node at dst: snapshot+stream the range and double-write
// every mutation that lands in it until the cutover map arrives.
func (cl *Client) MigrateStart(rg Range, dst Endpoint) error {
	return cl.do(OpMigStart, func(b []byte) []byte { return appendMigStartReq(b, rg, dst) }, 0, nil)
}

// MigrateStatus fetches the node's migration ledger (snapshot progress and
// the enqueued == sent == acked record counts the coordinator checks).
func (cl *Client) MigrateStatus() (info MigInfo, err error) {
	err = cl.do(OpMigStatus, nil, anyLen, func(p []byte) (err error) {
		info, err = parseMigInfo(p)
		return err
	})
	return info, err
}

// MigApply streams a batch of migrated records to the gaining node and
// returns how many applied cleanly and how many were benign conflicts
// (snapshot/double-write overlaps). The losing node's migration sender is
// the only caller.
func (cl *Client) MigApply(recs []MigRecord) (applied, conflicts uint32, err error) {
	err = cl.do(OpMigApply, func(dst []byte) []byte { return appendMigRecords(dst, recs) }, 8, func(p []byte) error {
		applied, conflicts = binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint32(p[4:8])
		return nil
	})
	return applied, conflicts, err
}
