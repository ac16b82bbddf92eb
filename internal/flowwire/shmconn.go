package flowwire

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Spin/park policy (DESIGN.md §11). A waiter that finds its ring
// empty/full yields through the Go scheduler for up to its conn's spin
// budget before parking. The budget is elapsed time, not a count of yields,
// because of what it has to outlast: a peer's park → doorbell → wake (tens of
// microseconds, occasionally most of a millisecond). If it does not, one park
// makes the peer's next wait outlast its own budget, and every exchange from
// then on pays a park, a doorbell and a wake. A count of yields cannot
// promise that — a yield returns fastest exactly when nothing else is
// runnable, which is when the peer is asleep. The right budget depends on
// where the peer runs, which is why the handshake exchanges PIDs:
//
//   - Same process (tests, benchmarks, the hypothesis harness): Gosched
//     hands the core straight to the peer goroutine, so spinning costs the
//     peer nothing and steady state never parks — zero syscalls per frame.
//     The budget also outlasts a kernel time slice: when the host takes a
//     core away and two runtime threads share one, it is the kernel that
//     hands the core to the peer's thread, within a slice, and a shorter
//     budget would add a park and a doorbell to every such hand-over.
//   - Cross-process, multiple cores: the peer may be mid-frame on another
//     core; a shorter spin bridges the gap between frames without holding
//     for long a core the peer's process may need.
//   - Cross-process, one core: spinning is pure poison — the peer cannot
//     run until this side sleeps, so every yield just delays the
//     handover. Park immediately and let the doorbell do its job.
const (
	shmSpin      = 5 * time.Millisecond   // same-process budget
	shmSpinCross = 250 * time.Microsecond // cross-process budget when cores are plural

	// shmSpinClockEvery is how many yields pass between looks at the clock,
	// which costs a third of a yield.
	shmSpinClockEvery = 32

	// shmParkBackstop bounds every park even without a deadline: the
	// wake protocol has no lost-wakeup window (see parked/recheck below),
	// but a bounded sleep turns any future protocol bug into a latency
	// blip instead of a hang, and keeps parked readers responsive to
	// deadline changes that raced the park.
	shmParkBackstop = 10 * time.Millisecond
)

// spinBudgetFor picks the spin budget for a conn whose peer runs in process
// peerPid.
func spinBudgetFor(peerPid int) time.Duration {
	if peerPid == os.Getpid() {
		return shmSpin
	}
	if runtime.NumCPU() > 1 {
		return shmSpinCross
	}
	return 0
}

// shmConnCounters is the process-wide syscall ledger for the shm
// transport. Every syscall a connection can make after the handshake goes
// through exactly two sites — ringDoorbell (a one-byte socket write) and
// the notifyLoop's blocking socket read (one return per wake) — plus the
// in-process channel parks, so counting these counts the transport's
// entire steady-state kernel traffic. The syscall-free acceptance test
// asserts the per-lookup delta is ~0 under load.
type shmConnCounters struct {
	doorbells atomic.Uint64 // doorbell bytes written (one write syscall each)
	wakes     atomic.Uint64 // doorbell socket reads that returned (one read syscall each)
	parks     atomic.Uint64 // waiter sleeps after the spin budget ran dry
}

var shmCounters shmConnCounters

// ShmCounters snapshots the process-wide shm transport event counters:
// doorbell writes, doorbell wakes and waiter parks since process start.
// Tests use the delta across a steady-state window to prove the frame
// path makes no syscalls.
func ShmCounters() (doorbells, wakes, parks uint64) {
	return shmCounters.doorbells.Load(), shmCounters.wakes.Load(), shmCounters.parks.Load()
}

// shmAddr is the net.Addr of both ends of a shm connection: the handshake
// socket path.
type shmAddr string

func (a shmAddr) Network() string { return TransportShm }
func (a shmAddr) String() string  { return string(a) }

// waiter is one blocking site (a conn has two: ring-empty on Read,
// ring-full on Write). The channel carries wakeups from the notifyLoop and
// from deadline changes; the timer is reused across parks so the park path
// stays allocation-free after its first use.
type waiter struct {
	ch    chan struct{}
	timer *time.Timer
}

func newWaiter() waiter { return waiter{ch: make(chan struct{}, 1)} }

// signal wakes a parked waiter. One that lands just after the waiter woke
// pre-arms the channel for the next park: a spurious wake costs one recheck
// loop and one more spin budget, never correctness.
func (w *waiter) signal() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// sleep blocks until a signal, the duration elapsing, or closeCh closing.
func (w *waiter) sleep(d time.Duration, closeCh <-chan struct{}) {
	rearm(&w.timer, d)
	select {
	case <-w.ch:
	case <-w.timer.C:
	case <-closeCh:
	}
}

// shmConn is one end of a shared-memory connection: a net.Conn whose byte
// stream lives in the mapped segment's rings. rx is the ring this side
// consumes, tx the one it produces; the handshake socket stays open as the
// doorbell and liveness channel. The steady-state Read/Write paths touch
// only the rings — memcpy plus two atomic cursors — and ring the doorbell
// (one syscall) only when the peer has declared itself parked.
type shmConn struct {
	seg  *shmSegment
	rx   *spscRing
	tx   *spscRing
	door *net.UnixConn
	addr shmAddr

	spinBudget time.Duration

	rxWait waiter
	txWait waiter

	readDeadline  atomic.Int64 // unix nanos; 0 = none
	writeDeadline atomic.Int64

	closeOnce sync.Once
	closeCh   chan struct{}
	closed    atomic.Bool
	peerGone  atomic.Bool // notifyLoop saw EOF/error on the doorbell socket
}

// newShmConn wires a conn over a bound segment. server picks which ring is
// consumed: the server consumes req and produces rep, the client the
// reverse; peerPid (learned in the handshake) sets the spin budget. The
// finalizer — not Close — unmaps the segment, so a reader racing Close can
// never touch unmapped pages.
func newShmConn(seg *shmSegment, door *net.UnixConn, addr string, server bool, peerPid int) *shmConn {
	c := &shmConn{
		seg:        seg,
		door:       door,
		addr:       shmAddr(addr),
		spinBudget: spinBudgetFor(peerPid),
		rxWait:     newWaiter(),
		txWait:     newWaiter(),
		closeCh:    make(chan struct{}),
	}
	if server {
		c.rx, c.tx = &seg.req, &seg.rep
	} else {
		c.rx, c.tx = &seg.rep, &seg.req
	}
	runtime.SetFinalizer(c, func(fc *shmConn) { munmap(fc.seg.mem) })
	go c.notifyLoop()
	return c
}

// notifyLoop is the single reader of the doorbell socket: it turns each
// doorbell byte (or the peer hanging up) into local wakeups. Keeping one
// blocked reader per conn means a doorbell can never be consumed by the
// "wrong" waiter — both are signalled and recheck their own ring.
func (c *shmConn) notifyLoop() {
	buf := make([]byte, 16)
	for {
		_, err := c.door.Read(buf)
		if err != nil {
			c.peerGone.Store(true)
			c.rxWait.signal()
			c.txWait.signal()
			return
		}
		shmCounters.wakes.Add(1)
		c.rxWait.signal()
		c.txWait.signal()
	}
}

var doorbellByte = [1]byte{1}

// ringDoorbell wakes the peer with one byte on the handshake socket. No
// deadline and no error handling: the peer's notifyLoop drains the socket
// continuously, so a blocked or failed write means the peer is gone — a
// condition the local notifyLoop reports independently.
func (c *shmConn) ringDoorbell() {
	shmCounters.doorbells.Add(1)
	c.door.Write(doorbellByte[:])
}

func deadlineExpired(dl int64) bool {
	return dl != 0 && time.Now().UnixNano() >= dl
}

// Read implements net.Conn: it returns any available bytes (≥1), blocking
// with the spin-then-park policy while the ring is empty. A dead peer's
// residual bytes are drained before io.EOF.
func (c *shmConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for {
		if n := c.rx.read(p); n > 0 {
			// Space was freed: wake the peer's producer if it parked on a
			// full ring. The flag is read-mostly-zero, so test with a load
			// before the swap; swap-to-zero means one doorbell per park.
			if c.rx.prod.Load() != 0 && c.rx.prod.Swap(0) == 1 {
				c.ringDoorbell()
			}
			return n, nil
		}
		if c.closed.Load() {
			return 0, net.ErrClosed
		}
		if c.peerGone.Load() {
			// The flag is set after the peer's final bytes were published;
			// one more read catches a publish that raced the hangup.
			if n := c.rx.read(p); n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		if deadlineExpired(c.readDeadline.Load()) {
			return 0, os.ErrDeadlineExceeded
		}
		if c.spin(c.rx.readable) {
			continue
		}
		if err := c.park(&c.rxWait, c.rx.cons, c.rx.readable, &c.readDeadline); err != nil {
			return 0, err
		}
	}
}

// Write implements net.Conn: the full buffer is written (possibly in ring
// chunks), blocking while the ring is full. Partial progress is reported
// with the error, matching net.Conn semantics.
func (c *shmConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		if c.closed.Load() {
			return total, net.ErrClosed
		}
		if c.peerGone.Load() {
			return total, io.ErrClosedPipe
		}
		if n := c.tx.write(p); n > 0 {
			// Bytes were published: wake the peer's consumer if parked.
			if c.tx.cons.Load() != 0 && c.tx.cons.Swap(0) == 1 {
				c.ringDoorbell()
			}
			total += n
			p = p[n:]
			continue
		}
		if deadlineExpired(c.writeDeadline.Load()) {
			return total, os.ErrDeadlineExceeded
		}
		if c.spin(c.tx.writable) {
			continue
		}
		if err := c.park(&c.txWait, c.tx.prod, c.tx.writable, &c.writeDeadline); err != nil {
			return total, err
		}
	}
	return total, nil
}

// spin yields through the scheduler for up to the conn's spin budget,
// returning true as soon as ready() reports progress is possible (or the conn
// state changed, which the caller's loop re-examines).
func (c *shmConn) spin(ready func() int) bool {
	if c.spinBudget == 0 {
		return false
	}
	start := time.Now()
	for i := 1; ; i++ {
		runtime.Gosched()
		if ready() > 0 || c.closed.Load() || c.peerGone.Load() {
			return true
		}
		if i%shmSpinClockEvery == 0 && time.Since(start) >= c.spinBudget {
			return false
		}
	}
}

// park publishes the waiting flag, rechecks the ring (the Dekker-style
// store-then-load pairing with the peer's publish-then-swap means at least
// one side always observes the other — no lost wakeups), then sleeps until
// a doorbell, the deadline, the backstop or close. Callers loop.
func (c *shmConn) park(w *waiter, flag *atomic.Uint32, ready func() int, deadline *atomic.Int64) error {
	shmCounters.parks.Add(1)
	flag.Store(1)
	if ready() > 0 || c.closed.Load() || c.peerGone.Load() {
		flag.Store(0)
		return nil
	}
	wait := shmParkBackstop
	if dl := deadline.Load(); dl != 0 {
		rem := time.Until(time.Unix(0, dl))
		if rem <= 0 {
			flag.Store(0)
			return os.ErrDeadlineExceeded
		}
		if rem < wait {
			wait = rem
		}
	}
	w.sleep(wait, c.closeCh)
	flag.Store(0)
	return nil
}

// Close tears the connection down: wakes every waiter, hangs up the
// doorbell socket (the peer's notifyLoop turns that into EOF), and leaves
// the segment mapped for the finalizer — an in-flight Read on another
// goroutine may still be touching the pages.
func (c *shmConn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.closeCh)
		c.door.Close()
	})
	return nil
}

func (c *shmConn) LocalAddr() net.Addr  { return c.addr }
func (c *shmConn) RemoteAddr() net.Addr { return c.addr }

// setDeadline stores a deadline and wakes the waiter it governs if — and only
// if — that waiter is parked: store the deadline, then load the parked flag;
// park stores the flag, then loads the deadline, so one side always sees the
// other. An unconditional signal would pre-arm the wake channel with nobody
// parked, and the next park would return at once and spin a second budget.
func setDeadline(dst *atomic.Int64, t time.Time, parked *atomic.Uint32, w *waiter) {
	if t.IsZero() {
		dst.Store(0)
	} else {
		dst.Store(t.UnixNano())
	}
	if parked.Load() != 0 {
		w.signal()
	}
}

// SetReadDeadline implements net.Conn; a parked or spinning reader observes
// the new deadline promptly.
func (c *shmConn) SetReadDeadline(t time.Time) error {
	setDeadline(&c.readDeadline, t, c.rx.cons, &c.rxWait)
	return nil
}

func (c *shmConn) SetWriteDeadline(t time.Time) error {
	setDeadline(&c.writeDeadline, t, c.tx.prod, &c.txWait)
	return nil
}

func (c *shmConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	c.SetWriteDeadline(t)
	return nil
}
