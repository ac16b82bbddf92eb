package flowwire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"halo/internal/flowserve"
	"halo/internal/stats"
)

// ErrServerClosed is returned by Serve after Drain or Close stops the
// listener, mirroring net/http.
var ErrServerClosed = errors.New("flowwire: server closed")

// Config parametrises a Server. The zero value of every field but Table is
// usable; defaults are applied by NewServer.
type Config struct {
	// Table is the flowserve table the server fronts. Required.
	Table *flowserve.Table

	// MaxFrame bounds accepted frame length in bytes (default
	// DefaultMaxFrame). Longer frames earn StatusErrOversized and a close.
	MaxFrame uint32

	// IdleTimeout bounds each wait for a client's next frame (default 2m). A
	// connection idle longer is closed.
	IdleTimeout time.Duration

	// WriteTimeout bounds each write of replies to the connection (default
	// 30s). A client that stops reading for that long is disconnected.
	WriteTimeout time.Duration

	// Self is this node's advertised endpoint in a cluster (the one other
	// nodes and the router dial). Required when Cluster is set; ignored
	// otherwise.
	Self Endpoint

	// Cluster, when non-empty, runs the server as a cluster node: the list
	// is the bootstrap node set (it must include Self), and every node
	// derives the same uniform epoch-1 shard map from it. A cluster node
	// answers keys outside its owned hash ranges with a WRONG_SHARD
	// redirect and honors the migration admin ops (DESIGN.md §13).
	Cluster []Endpoint
}

func (cfg *Config) applyDefaults() error {
	if cfg.Table == nil {
		return errors.New("flowwire: Config.Table is required")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxFrame < headerSize {
		return fmt.Errorf("flowwire: MaxFrame %d smaller than the %d-byte header", cfg.MaxFrame, headerSize)
	}
	if err := nonNegative("Config.IdleTimeout", cfg.IdleTimeout); err != nil {
		return err
	}
	if err := nonNegative("Config.WriteTimeout", cfg.WriteTimeout); err != nil {
		return err
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	return nil
}

// nonNegative refuses a negative timeout: its first deadline would already
// be past, so every connection would fail on its first read or write.
func nonNegative(field string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("flowwire: %s %v is negative (0 selects the default)", field, d)
	}
	return nil
}

// serverCounters are the runtime's atomic counters, published under
// flowwire.* by CollectInto. framesAccepted counts fully parsed frames
// (including unknown-op frames, which get typed replies); framesRejected
// counts protocol violations answered with a typed error reply before the
// connection closes; repliesWritten counts replies flushed to the
// connection. In a clean run repliesWritten equals their sum — the zero-loss
// invariant flowserved asserts at drain.
type serverCounters struct {
	connsAccepted  atomic.Uint64
	connsClosed    atomic.Uint64
	framesAccepted atomic.Uint64
	framesRejected atomic.Uint64
	repliesWritten atomic.Uint64
	writeErrors    atomic.Uint64
	coalesceCalls  atomic.Uint64
	coalesceFrames atomic.Uint64
	coalesceKeys   atomic.Uint64
}

// Server serves a flowserve table over the wire protocol. Create with
// NewServer, run with Serve/ListenAndServeEndpoint, stop with Drain
// (graceful) or Close (abrupt).
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*srvConn]struct{}
	draining atomic.Bool
	closed   bool

	// cl is the cluster state (shard map, migration engine); nil on a
	// standalone server, which keeps the hot paths cluster-free.
	cl *cluster

	connWG sync.WaitGroup // one per live connection
	c      serverCounters

	// hookGated, when set by a test, runs in serveLookups between the
	// ownership gate and the table probe.
	hookGated func()
}

// NewServer validates cfg and builds a server.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, conns: make(map[*srvConn]struct{})}
	if len(cfg.Cluster) > 0 {
		cl, err := newCluster(cfg.Self, cfg.Cluster)
		if err != nil {
			return nil, err
		}
		s.cl = cl
	}
	return s, nil
}

// clusterMap returns the installed shard map, or nil on a standalone
// server — one pointer load on the hot paths.
func (s *Server) clusterMap() *ShardMap {
	if s.cl == nil {
		return nil
	}
	return s.cl.m.Load()
}

// ListenAndServeEndpoint listens on a parsed endpoint — tcp://host:port,
// unix:///path or shm:///path — and calls Serve. The server runtime is
// transport-agnostic: every connection runs the same loop whatever
// net.Listener accepted it.
func (s *Server) ListenAndServeEndpoint(ep Endpoint) error {
	ln, err := ListenEndpoint(ep)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Drain or Close stops it, then
// returns ErrServerClosed. One goroutine is spawned per connection.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		s.c.connsAccepted.Add(1)
		c := newSrvConn(s, nc)
		s.mu.Lock()
		if s.draining.Load() || s.closed {
			// Raced with Drain: refuse rather than serve a half-tracked conn.
			s.mu.Unlock()
			nc.Close()
			s.c.connsClosed.Add(1)
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go c.serve()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Addr returns the listener's address (useful with ":0"), or nil before
// Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// DrainReport summarises a graceful drain: the frame/reply ledger at the
// moment every connection finished (or the timeout expired).
type DrainReport struct {
	Conns          uint64 // connections open when the drain began
	FramesAccepted uint64
	FramesRejected uint64
	RepliesWritten uint64
	Clean          bool // every connection drained inside the timeout
}

// Lost is the number of accepted-or-rejected frames whose reply never hit
// the wire — zero on a clean drain with well-behaved clients.
func (r DrainReport) Lost() uint64 {
	owed := r.FramesAccepted + r.FramesRejected
	if r.RepliesWritten >= owed {
		return 0
	}
	return owed - r.RepliesWritten
}

// Drain is the SIGTERM path: stop accepting, then let every connection
// finish the burst it has read, flush and close. Connections still busy
// after timeout are force-closed (report.Clean = false).
func (s *Server) Drain(timeout time.Duration) DrainReport {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		if s.ln != nil {
			s.ln.Close()
		}
	}
	open := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()

	// Unblock connections waiting for a frame; they observe draining and
	// exit without reading another.
	for _, c := range open {
		c.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	clean := true
	select {
	case <-done:
	case <-time.After(timeout):
		clean = false
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return DrainReport{
		Conns:          uint64(len(open)),
		FramesAccepted: s.c.framesAccepted.Load(),
		FramesRejected: s.c.framesRejected.Load(),
		RepliesWritten: s.c.repliesWritten.Load(),
		Clean:          clean,
	}
}

// Close abandons all connections immediately. In-flight requests are lost;
// use Drain to stop gracefully.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// CollectInto publishes the server's counters (flowwire.*) and its table's
// counters (flowserve.*) into snap. This is also the STATS reply body.
func (s *Server) CollectInto(snap *stats.Snapshot) {
	snap.Add("flowwire.conns.accepted", s.c.connsAccepted.Load())
	snap.Add("flowwire.conns.closed", s.c.connsClosed.Load())
	snap.Add("flowwire.frames.accepted", s.c.framesAccepted.Load())
	snap.Add("flowwire.frames.rejected", s.c.framesRejected.Load())
	snap.Add("flowwire.replies.written", s.c.repliesWritten.Load())
	snap.Add("flowwire.write.errors", s.c.writeErrors.Load())
	snap.Add("flowwire.coalesce.calls", s.c.coalesceCalls.Load())
	snap.Add("flowwire.coalesce.frames", s.c.coalesceFrames.Load())
	snap.Add("flowwire.coalesce.keys", s.c.coalesceKeys.Load())
	if s.cl != nil {
		s.cl.collectInto(snap)
	}
	s.cfg.Table.CollectInto(snap)
}

// maxBurst caps how many frames one pass of the connection loop reads before
// serving them. It bounds the connection's scratch (one payload buffer per
// slot) and the size of one coalesced Batch.LookupMany; a deeper pipeline is
// served in several passes.
const maxBurst = 32

// srvConn is one connection, served start to finish by one goroutine: read a
// burst of frames, serve them in arrival order, encode the replies into the
// buffered writer, flush once nothing more is buffered, repeat. The loop does
// not read while it writes, so a client that stops reading its replies stalls
// in its own send buffer — backpressure is the transport's.
type srvConn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	// The current burst: frames[i].Payload aliases bufs[i] until the next
	// burst is read.
	frames [maxBurst]Frame
	bufs   [maxBurst][]byte

	out       []byte // reply encode scratch
	unflushed uint64 // replies sitting in bw, not yet counted as written
	dead      bool   // a write failed: the peer is gone

	// Lookup scratch, reused across coalesced runs.
	batch    *flowserve.Batch
	keys     [][]byte
	nkeys    []int
	results  []flowserve.Result
	statuses []Status
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	return &srvConn{
		srv:   s,
		nc:    nc,
		br:    bufio.NewReaderSize(nc, 64<<10),
		bw:    bufio.NewWriterSize(nc, 64<<10),
		batch: s.cfg.Table.NewPinnedReader(),
	}
}

// serve runs the connection to completion. Every exit — EOF, idle timeout,
// protocol violation, write failure, drain — leaves through the same door:
// the burst in hand is served, its replies are flushed, the socket closes.
func (c *srvConn) serve() {
	defer c.srv.connWG.Done()
	for !c.dead {
		if !c.frameBuffered() {
			// The next read may block, so what has been served goes out first.
			if !c.flush() {
				break
			}
			// Deadline first, draining second: Drain sets the flag and then
			// pulls the deadline in to now. Whichever way the two interleave,
			// either the check below sees the flag or the read sees Drain's
			// deadline; the other order could overwrite it and sleep through
			// the drain.
			c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		}
		if c.srv.draining.Load() {
			break
		}
		n, err := c.readBurst()
		c.srv.c.framesAccepted.Add(uint64(n))
		c.serveBurst(c.frames[:n])
		if err != nil {
			// A protocol violation earns its typed reply, behind the replies
			// to the frames before it; framing is unrecoverable, so close.
			if st := rejectStatus(err); st != StatusOK {
				c.srv.c.framesRejected.Add(1)
				c.reply(c.frames[n].Op, st, c.frames[n].ReqID, nil)
			}
			break
		}
	}
	c.flush()
	c.nc.Close()

	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
	c.srv.c.connsClosed.Add(1)
}

// frameBuffered reports whether the next frame is whole in the read buffer,
// so reading it cannot block. (A length prefix that ReadFrameHeader will
// refuse may report false; the refusal needs only the prefix, so that read
// does not block either.)
func (c *srvConn) frameBuffered() bool {
	buffered := c.br.Buffered()
	if buffered < lenSize {
		return false
	}
	prefix, _ := c.br.Peek(lenSize)
	return uint64(buffered) >= lenSize+uint64(binary.LittleEndian.Uint32(prefix))
}

// readBurst blocks for one frame, then takes every further frame that is
// already whole in the read buffer, up to maxBurst. It returns how many
// well-formed frames it read and the error that ended the burst, if any; on
// a header error c.frames[n] holds whatever of the offender was decoded.
func (c *srvConn) readBurst() (n int, err error) {
	for n < maxBurst && (n == 0 || c.frameBuffered()) {
		c.bufs[n], err = ReadFrameInto(c.br, c.srv.cfg.MaxFrame, &c.frames[n], c.bufs[n])
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// rejectStatus maps a frame-read error to the typed reply it earns, or
// StatusOK for none: EOF, a timeout, a transport error or a peer that died
// mid-frame leave nobody to read one.
func rejectStatus(err error) Status {
	switch {
	case errors.Is(err, ErrFrameTooLarge):
		return StatusErrOversized
	case errors.Is(err, ErrBadVersion):
		return StatusErrVersion
	case errors.Is(err, ErrShortFrame), errors.Is(err, ErrBadReserved):
		return StatusErrMalformed
	}
	return StatusOK
}

// serveBurst answers frames in arrival order. A run of consecutive
// LOOKUP_MANY frames shares one Batch.LookupMany; anything else ends the run
// and is served after it, so per-connection FIFO semantics hold.
func (c *srvConn) serveBurst(frames []Frame) {
	for i := 0; i < len(frames); {
		if frames[i].Op != OpLookupMany {
			c.serveOne(&frames[i])
			i++
			continue
		}
		j := i + 1
		for j < len(frames) && frames[j].Op == OpLookupMany {
			j++
		}
		c.serveLookups(frames[i:j])
		i = j
	}
}

// serveLookups answers a run of lookup frames: one parse pass collects every
// frame's keys (and per-frame typed-error statuses), one Batch.LookupMany
// serves all collected keys, one emit pass writes replies in frame order.
func (c *srvConn) serveLookups(frames []Frame) {
	keyLen := c.srv.cfg.Table.KeyLen()
	// One map load covers the whole run: the ownership check and the
	// WRONG_SHARD epoch must come from the same map version.
	m := c.srv.clusterMap()
	c.keys = c.keys[:0]
	c.nkeys = c.nkeys[:0]
	c.statuses = c.statuses[:0]
	for i := range frames {
		f := &frames[i]
		before := len(c.keys)
		var st Status
		c.keys, st = parseLookupManyReq(f.Payload, keyLen, c.keys)
		// Whole-frame ownership: the router builds per-node sub-batches, so a
		// frame mixing owned and unowned keys means a stale map — redirect the
		// frame and let the router re-route everything.
		if st == StatusOK && m != nil && !c.srv.cl.ownsAll(m, c.keys[before:]) {
			st = StatusErrWrongShard
		}
		if st != StatusOK {
			c.keys = c.keys[:before] // drop any partially collected keys
		}
		c.statuses = append(c.statuses, st)
		c.nkeys = append(c.nkeys, len(c.keys)-before)
	}
	if h := c.srv.hookGated; h != nil {
		h()
	}

	total := len(c.keys)
	if cap(c.results) < total {
		c.results = make([]flowserve.Result, total)
	}
	c.results = c.results[:total]
	if total > 0 {
		c.batch.LookupMany(c.keys, c.results)
	}
	c.srv.c.coalesceCalls.Add(1)
	c.srv.c.coalesceFrames.Add(uint64(len(frames)))
	c.srv.c.coalesceKeys.Add(uint64(total))

	// Validate, seqlock-style: a cutover installs its map and then purges
	// the range it surrendered, so a probe that ran under a map that has
	// since been replaced may have read a purged table. Frames the new map
	// no longer assigns here are redirected instead of answered; the purge
	// never touches keys the new map still assigns here.
	if now := c.srv.clusterMap(); now != m {
		m = now
		off := 0
		for i, n := range c.nkeys {
			if c.statuses[i] == StatusOK && !c.srv.cl.ownsAll(m, c.keys[off:off+n]) {
				c.statuses[i] = StatusErrWrongShard
				c.srv.cl.c.staleProbes.Add(uint64(n))
			}
			off += n
		}
	}

	off := 0
	for i := range frames {
		f := &frames[i]
		res := c.results[off : off+c.nkeys[i]]
		off += len(res)
		switch {
		case c.statuses[i] == StatusErrWrongShard:
			c.srv.cl.c.wrongShard.Add(1)
			c.replyWrongShard(f.Op, f.ReqID, m.Epoch)
		case c.statuses[i] != StatusOK:
			c.reply(f.Op, c.statuses[i], f.ReqID, nil)
		default:
			c.out = AppendFrameHeader(c.out[:0], OpLookupMany, StatusOK, f.ReqID, 4+9*len(res))
			c.out = appendLookupManyReply(c.out, res)
			c.send()
		}
	}
}

// serveOne answers a non-lookup frame.
func (c *srvConn) serveOne(f *Frame) {
	t := c.srv.cfg.Table
	keyLen := t.KeyLen()
	switch f.Op {
	case OpHello:
		c.out = AppendFrameHeader(c.out[:0], OpHello, StatusOK, f.ReqID, helloReplyLen)
		c.out = appendHelloReply(c.out, HelloInfo{KeyLen: keyLen, Shards: t.Shards(), Capacity: t.Capacity()})
		c.send()
	case OpInsert, OpUpdate:
		if len(f.Payload) < 8 {
			c.reply(f.Op, StatusErrMalformed, f.ReqID, nil)
			return
		}
		value := binary.LittleEndian.Uint64(f.Payload[:8])
		key := f.Payload[8:]
		if len(key) != keyLen {
			c.reply(f.Op, StatusErrKeyLen, f.ReqID, nil)
			return
		}
		st, found, epoch := c.srv.applyMutation(f.Op, key, value)
		switch {
		case st == StatusErrWrongShard:
			c.replyWrongShard(f.Op, f.ReqID, epoch)
		case f.Op == OpInsert:
			c.reply(OpInsert, st, f.ReqID, nil)
		default:
			c.replyFound(OpUpdate, f.ReqID, found)
		}
	case OpDelete:
		if len(f.Payload) != keyLen {
			c.reply(OpDelete, StatusErrKeyLen, f.ReqID, nil)
			return
		}
		st, found, epoch := c.srv.applyMutation(OpDelete, f.Payload, 0)
		if st == StatusErrWrongShard {
			c.replyWrongShard(OpDelete, f.ReqID, epoch)
			return
		}
		c.replyFound(OpDelete, f.ReqID, found)
	case OpStats:
		snap := stats.NewSnapshot()
		c.srv.CollectInto(snap)
		payload, err := json.Marshal(snap)
		if err != nil {
			c.reply(OpStats, StatusErrInternal, f.ReqID, nil)
			return
		}
		c.reply(OpStats, StatusOK, f.ReqID, payload)
	case OpShardMap:
		var payload []byte
		if m := c.srv.clusterMap(); m != nil {
			payload = AppendShardMap(nil, m)
		}
		c.reply(OpShardMap, StatusOK, f.ReqID, payload)
	case OpMapUpdate:
		c.reply(OpMapUpdate, c.srv.handleMapUpdate(f.Payload), f.ReqID, nil)
	case OpMigStart:
		st := StatusErrMalformed
		if rg, dst, err := parseMigStartReq(f.Payload); err == nil {
			st = c.srv.handleMigStart(rg, dst)
		}
		c.reply(OpMigStart, st, f.ReqID, nil)
	case OpMigStatus:
		cl := c.srv.cl
		if cl == nil {
			c.reply(OpMigStatus, StatusErrCluster, f.ReqID, nil)
			return
		}
		mi := cl.migInfo()
		c.reply(OpMigStatus, StatusOK, f.ReqID, appendMigInfo(nil, &mi))
	case OpMigApply:
		if c.srv.cl == nil {
			// Records bypass the ownership gate, so only a cluster node,
			// which a migration addresses, may apply them.
			c.reply(OpMigApply, StatusErrCluster, f.ReqID, nil)
			return
		}
		recs, err := parseMigRecords(f.Payload, nil)
		if err != nil {
			c.reply(OpMigApply, StatusErrMalformed, f.ReqID, nil)
			return
		}
		processed, conflicts, st := c.srv.applyMigRecords(recs)
		if st != StatusOK {
			c.reply(OpMigApply, st, f.ReqID, nil)
			return
		}
		var payload [8]byte
		binary.LittleEndian.PutUint32(payload[0:4], processed)
		binary.LittleEndian.PutUint32(payload[4:8], conflicts)
		c.reply(OpMigApply, StatusOK, f.ReqID, payload[:])
	default:
		// A well-framed unknown op is a typed reply, not a connection killer.
		c.reply(f.Op, StatusErrOp, f.ReqID, nil)
	}
}

// replyWrongShard emits the WRONG_SHARD redirect carrying the node's map
// epoch — the one error reply with a payload.
func (c *srvConn) replyWrongShard(op Op, reqID uint64, epoch uint64) {
	c.out = AppendFrameHeader(c.out[:0], op, StatusErrWrongShard, reqID, 8)
	c.out = appendWrongShard(c.out, epoch)
	c.send()
}

// replyFound emits an UPDATE/DELETE reply: one byte, whether the key existed.
func (c *srvConn) replyFound(op Op, reqID uint64, found bool) {
	b := byte(0)
	if found {
		b = 1
	}
	c.out = append(AppendFrameHeader(c.out[:0], op, StatusOK, reqID, 1), b)
	c.send()
}

// reply encodes and sends one frame.
func (c *srvConn) reply(op Op, st Status, reqID uint64, payload []byte) {
	c.out = AppendFrameHeader(c.out[:0], op, st, reqID, len(payload))
	c.out = append(c.out, payload...)
	c.send()
}

// send copies the reply encoded in c.out into the buffered writer. Only a
// write that overflows the buffer touches the connection, and that write is
// bounded by WriteTimeout.
func (c *srvConn) send() {
	if c.dead {
		return
	}
	if len(c.out) > c.bw.Available() {
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	}
	if _, err := c.bw.Write(c.out); err != nil {
		c.writeFailed()
		return
	}
	c.unflushed++
}

// flush puts every buffered reply on the wire and only then counts it as
// written, so the drain ledger never credits a reply the peer cannot have. It
// reports whether the connection is still usable.
func (c *srvConn) flush() bool {
	if c.dead {
		return false
	}
	if c.bw.Buffered() > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if err := c.bw.Flush(); err != nil {
			c.writeFailed()
			return false
		}
	}
	c.srv.c.repliesWritten.Add(c.unflushed)
	c.unflushed = 0
	return true
}

// writeFailed retires the connection after a failed write: the client is
// gone or has stopped reading, so the replies still owed are lost (and stay
// uncounted, which is how DrainReport.Lost sees them).
func (c *srvConn) writeFailed() {
	c.dead = true
	c.srv.c.writeErrors.Add(1)
}
