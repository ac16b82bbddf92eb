package flowwire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"halo/internal/flowserve"
)

// TestShmTransportOps runs the full op surface over the shared-memory
// transport: the wire protocol and server runtime are transport-agnostic,
// so everything that works on TCP and unix must work identically here.
func TestShmTransportOps(t *testing.T) {
	_, tbl, addr := startServerOn(t, TransportShm, flowserve.Config{Shards: 4, Entries: 4096, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{Conns: 2})

	if h := cl.Hello(); h.KeyLen != 20 || h.Shards != 4 || h.Capacity != tbl.Capacity() {
		t.Fatalf("HELLO over shm = %+v", h)
	}
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := cl.Insert(wkey(i), i*3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := cl.Lookup(wkey(i)); !ok || v != i*3 {
			t.Fatalf("lookup %d = (%d,%v)", i, v, ok)
		}
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = wkey(uint64(i))
	}
	results := make([]flowserve.Result, n)
	if hits := cl.LookupMany(keys, results); hits != n {
		t.Fatalf("LookupMany hits = %d, want %d", hits, n)
	}
	if !cl.Update(wkey(7), 999) {
		t.Fatal("update failed")
	}
	if v, _ := cl.Lookup(wkey(7)); v != 999 {
		t.Fatalf("post-update value = %d", v)
	}
	if !cl.Delete(wkey(8)) {
		t.Fatal("delete failed")
	}
	if _, ok := cl.Lookup(wkey(8)); ok {
		t.Fatal("deleted key still present")
	}
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	if c := countsOf(cl); c.errors != 0 {
		t.Fatalf("clean shm run counted errors: %+v", c)
	}
}

// TestShmSegmentUnlinkedAfterHandshake pins the segment lifetime contract:
// once a connection is established the filesystem holds only the handshake
// socket — the segment file was unlinked at ack time, so a crash from then
// on leaks no disk artifacts.
func TestShmSegmentUnlinkedAfterHandshake(t *testing.T) {
	_, _, addr := startServerOn(t, TransportShm, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{})
	if _, ok := cl.Lookup(wkey(1)); ok {
		t.Fatal("lookup hit in empty table")
	}
	segs, err := filepath.Glob(addr.Addr + shmSegSuffix + "*")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("segment files survive the handshake: %v", segs)
	}
}

// TestListenRemovesStaleShmArtifacts pins flowserved restart behavior for
// shm, the analogue of the stale-unix-socket test plus the segment sweep: a
// crashed server leaves its handshake socket (nobody accepting) and, if it
// died mid-handshake, segment files — Listen removes all of it and rebinds.
// A live server's socket and segments are left alone.
func TestListenRemovesStaleShmArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.sock")

	// Manufacture a crashed server: a dead socket plus two orphaned
	// segment files from a handshake that never finished.
	ua, err := net.ResolveUnixAddr("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	ul, err := net.ListenUnix("unix", ua)
	if err != nil {
		t.Fatal(err)
	}
	ul.SetUnlinkOnClose(false)
	ul.Close()
	orphans := []string{path + shmSegSuffix + "12345.1", path + shmSegSuffix + "12345.2"}
	for _, seg := range orphans {
		if err := os.WriteFile(seg, make([]byte, 128), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := ListenEndpoint(Endpoint{Transport: TransportShm, Addr: path})
	if err != nil {
		t.Fatalf("Listen over crashed server's artifacts: %v", err)
	}
	defer ln.Close()
	for _, seg := range orphans {
		if _, err := os.Lstat(seg); !os.IsNotExist(err) {
			t.Errorf("orphaned segment %s survived the sweep", seg)
		}
	}

	// While the first listener is live: a second bind must fail, and must
	// not sweep the live server's segment files.
	liveSeg := path + shmSegSuffix + "live.1"
	if err := os.WriteFile(liveSeg, make([]byte, 128), 0o600); err != nil {
		t.Fatal(err)
	}
	if ln2, err := ListenEndpoint(Endpoint{Transport: TransportShm, Addr: path}); err == nil {
		ln2.Close()
		t.Fatal("Listen stole a live server's shm path")
	}
	if _, err := os.Lstat(liveSeg); err != nil {
		t.Errorf("live server's segment was swept: %v", err)
	}
}

// TestStaleShmSweepTakesPathLiterally: the segment sweep matches the socket
// path as a literal name prefix, not a glob pattern. A path holding glob
// metacharacters must still lose its own orphaned segments and must leave a
// neighbour's files alone, including when the pattern would not even parse.
func TestStaleShmSweepTakesPathLiterally(t *testing.T) {
	for _, tc := range []struct{ name, decoy string }{
		{"fs[1].sock", "fs1.sock"}, // [1] would match the decoy's "1"
		{"fs[2.sock", "fs2.sock"},  // unclosed [: a malformed pattern
		{"fs*.sock", "fsx.sock"},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, tc.name)
		own := path + shmSegSuffix + "9.1"
		decoy := filepath.Join(dir, tc.decoy+shmSegSuffix+"9.1")
		for _, f := range []string{own, decoy} {
			if err := os.WriteFile(f, make([]byte, 128), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		ln, err := ListenEndpoint(Endpoint{Transport: TransportShm, Addr: path})
		if err != nil {
			t.Fatalf("%s: Listen: %v", tc.name, err)
		}
		ln.Close()
		if _, err := os.Lstat(own); !os.IsNotExist(err) {
			t.Errorf("%s: own orphaned segment survived the sweep", tc.name)
		}
		if _, err := os.Lstat(decoy); err != nil {
			t.Errorf("%s: sweep removed %s's segment: %v", tc.name, tc.decoy, err)
		}
	}
}

// fakeShmServer answers one dial on a fresh handshake socket with a
// well-formed hello naming segPath, as a broken or hostile server might, and
// returns the socket's path.
func fakeShmServer(t *testing.T, segPath string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake.sock")
	ln, err := net.Listen("unix", path)
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
		hello := binary.LittleEndian.AppendUint32(nil, shmMagic)
		hello = binary.LittleEndian.AppendUint32(hello, shmLayoutVer)
		hello = binary.LittleEndian.AppendUint32(hello, uint32(os.Getpid()))
		hello = binary.LittleEndian.AppendUint16(hello, uint16(len(segPath)))
		nc.Write(append(hello, segPath...))
		io.Copy(io.Discard, nc) // until the client hangs up
	}()
	return path
}

// TestShmDialRefusesBadSegments: the segment header is the one statement of
// the ring geometry, so the client holds the file to it. A file larger than
// the largest valid segment is refused before it is mapped (a sparse file:
// mapping it would have succeeded and failed later, on the magic), and a
// header whose ring size disagrees with the file's size is refused after.
func TestShmDialRefusesBadSegments(t *testing.T) {
	dir := t.TempDir()
	huge := filepath.Join(dir, "huge.seg")
	if err := os.WriteFile(huge, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(huge, int64(segmentSize(maxShmRingBytes))+1); err != nil {
		t.Fatal(err)
	}
	lying := filepath.Join(dir, "lying.seg")
	mem := alignedMem(segmentSize(minShmRingBytes))
	if _, err := initSegment(mem, minShmRingBytes); err != nil {
		t.Fatal(err)
	}
	u32at(mem, offRingSize).Store(2 * minShmRingBytes)
	if err := os.WriteFile(lying, mem, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ seg, want string }{
		{huge, "outside"},
		{lying, "header claims"},
	} {
		if c, err := dialShm(fakeShmServer(t, tc.seg), 5*time.Second); err == nil || !strings.Contains(err.Error(), tc.want) {
			if c != nil {
				c.Close()
			}
			t.Errorf("dial with segment %s: err = %v, want one that mentions %q", filepath.Base(tc.seg), err, tc.want)
		}
	}
}

// shmLoopbackPair builds a raw connected shm conn pair (no flowwire server
// on top) for conn-level tests.
func shmLoopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pair.sock")
	ln, err := listenShm(path, minShmRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- nc
	}()
	client, err = dialShm(path, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}

// TestShmConnDeadlines pins the conn-level blocking semantics the server
// runtime depends on: an expired read deadline yields
// os.ErrDeadlineExceeded (not a hang), and SetReadDeadline(now) unparks an
// already-blocked reader — that is how Drain interrupts idle connections.
func TestShmConnDeadlines(t *testing.T) {
	client, server := shmLoopbackPair(t)

	server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 16)
	if _, err := server.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want ErrDeadlineExceeded", err)
	}

	// Blocked reader, deadline set from another goroutine mid-park.
	server.SetReadDeadline(time.Time{})
	errCh := make(chan error, 1)
	go func() {
		_, err := server.Read(buf)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	server.SetReadDeadline(time.Now())
	select {
	case err := <-errCh:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("interrupted read = %v, want ErrDeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetReadDeadline(now) did not unpark the reader")
	}

	// The conn still works after deadline errors.
	server.SetReadDeadline(time.Time{})
	if _, err := client.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if n, err := server.Read(buf); err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("post-deadline read = %q, %v", buf[:n], err)
	}
}

// TestShmDeadlineStoreWakesNobody pins that a deadline stored with nobody
// parked leaves no wake-up behind. An unconditional signal pre-armed the wake
// channel: the next park returned at once, the reader spun a second full
// budget and parked again — two parks counted for one sleep. The peer writes
// only once the reader is parked, so the wait is exactly one park.
func TestShmDeadlineStoreWakesNobody(t *testing.T) {
	client, server := shmLoopbackPair(t)
	sc := server.(*shmConn)
	server.SetReadDeadline(time.Now().Add(time.Minute))
	if n := len(sc.rxWait.ch); n != 0 {
		t.Fatalf("SetReadDeadline with nobody parked left %d wake-ups armed", n)
	}
	_, _, before := ShmCounters()
	wrote := make(chan error, 1)
	go func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if _, _, parks := ShmCounters(); parks > before && sc.rx.cons.Load() != 0 {
				break
			}
		}
		_, err := client.Write([]byte("x"))
		wrote <- err
	}()
	buf := make([]byte, 16)
	if n, err := server.Read(buf); err != nil || n != 1 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if _, _, after := ShmCounters(); after-before != 1 {
		t.Fatalf("one sleep on an empty ring counted %d parks, want 1", after-before)
	}
}

// TestShmConnPeerClose pins the hangup semantics: the peer closing hands
// the reader any residual ring bytes first, then io.EOF — the same drain
// order a socket gives, which the server's reader loop relies on to
// process a client's final pipelined frames.
func TestShmConnPeerClose(t *testing.T) {
	client, server := shmLoopbackPair(t)
	if _, err := client.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	client.Close()

	buf := make([]byte, 64)
	got := make([]byte, 0, 16)
	for {
		n, err := server.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read after peer close = %v, want io.EOF", err)
		}
	}
	if string(got) != "last words" {
		t.Fatalf("residual bytes = %q", got)
	}

	// Writing at a dead peer fails rather than filling the ring forever.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := server.Write(make([]byte, 32)); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write to dead peer never failed")
		}
	}
}

// TestShmConnFullRingBackpressure pushes more than a ring's capacity with a
// slow consumer: Write must block (not drop or error) and deliver every
// byte in order once the consumer catches up.
func TestShmConnFullRingBackpressure(t *testing.T) {
	client, server := shmLoopbackPair(t) // 64-byte rings
	const total = 8 << 10
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, total)
		for wrote := 0; wrote < total; {
			chunk := 200 // several times the ring capacity per call
			if rem := total - wrote; chunk > rem {
				chunk = rem
			}
			for i := 0; i < chunk; i++ {
				buf[i] = byte(wrote + i)
			}
			n, err := client.Write(buf[:chunk])
			if err != nil {
				errCh <- err
				return
			}
			wrote += n
		}
		errCh <- nil
	}()
	buf := make([]byte, 37)
	var want byte
	for got := 0; got < total; {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatalf("read at byte %d: %v", got, err)
		}
		for _, b := range buf[:n] {
			if b != want {
				t.Fatalf("byte %d = %d, want %d", got, b, want)
			}
			want++
			got++
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestShmLoopbackSteadyStateAllocs extends the zero-alloc gate to the full
// client hot path, over shm and over tcp: once the pools and the conn's park
// timer are warm, each row — a LookupMany of 64 resident keys, a Lookup (the
// call wire-shm-single measures), an Update, and a Delete then Insert of one
// resident key — allocates nothing in the process, client and server
// together. The ring transport must not cost the client the 0 B/op contract
// the socket transports already meet.
func TestShmLoopbackSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on sync operations")
	}
	const batch = 64
	for _, transport := range []string{TransportShm, TransportTCP} {
		_, tbl, addr := startServerOn(t, transport, flowserve.Config{Shards: 4, Entries: 8192, KeyLen: 20}, Config{})
		keys := make([][]byte, batch)
		for i := range keys {
			keys[i] = wkey(uint64(i))
			if err := tbl.Insert(keys[i], uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		cl := dialTest(t, addr, Options{})
		results := make([]flowserve.Result, batch)
		rows := []struct {
			name string
			op   func(i int)
		}{
			{"LookupMany", func(int) {
				if hits := cl.LookupMany(keys, results); hits != batch {
					t.Fatalf("%s LookupMany hits = %d, want %d", transport, hits, batch)
				}
			}},
			{"Lookup", func(i int) {
				if v, ok := cl.Lookup(keys[i]); !ok || v != uint64(i) {
					t.Fatalf("%s Lookup of resident key %d = (%d,%v)", transport, i, v, ok)
				}
			}},
			{"Update", func(i int) {
				if !cl.Update(keys[i], uint64(i)) {
					t.Fatalf("%s Update of resident key %d missed", transport, i)
				}
			}},
			{"Delete+Insert", func(i int) {
				if !cl.Delete(keys[i]) {
					t.Fatalf("%s Delete of resident key %d missed", transport, i)
				}
				if err := cl.Insert(keys[i], uint64(i)); err != nil {
					t.Fatalf("%s Insert of key %d: %v", transport, i, err)
				}
			}},
		}
		for _, row := range rows {
			i := 0
			run := func() { row.op(i % batch); i++ }
			for warm := 0; warm < 64; warm++ {
				run()
			}
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("%s Client.%s allocates %.2f times per op, want 0", transport, row.name, allocs)
			}
		}
		if err := cl.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShmSteadyStateSyscallFree is the syscall-free acceptance gate. Every
// post-handshake syscall the transport can make flows through the counted
// sites (doorbell writes, doorbell wakes, parks — see shmConnCounters), so
// a near-zero counter delta across a loaded window proves the frame path
// runs on memory alone. Sockets pay ≥4 syscalls per batch; the gate allows
// at most one counted event per five batches — two orders of magnitude
// under socket cost, with headroom for a GC pause parking a waiter.
func TestShmSteadyStateSyscallFree(t *testing.T) {
	const batch = 64
	_, tbl, addr := startServerOn(t, TransportShm, flowserve.Config{Shards: 4, Entries: 8192, KeyLen: 20}, Config{})
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = wkey(uint64(i))
		if err := tbl.Insert(keys[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cl := dialTest(t, addr, Options{})
	results := make([]flowserve.Result, batch)
	for i := 0; i < 32; i++ {
		if hits := cl.LookupMany(keys, results); hits != batch {
			t.Fatalf("warmup hits = %d", hits)
		}
	}

	const ops = 2000
	d0, w0, p0 := ShmCounters()
	for i := 0; i < ops; i++ {
		if hits := cl.LookupMany(keys, results); hits != batch {
			t.Fatalf("hits = %d", hits)
		}
	}
	d1, w1, p1 := ShmCounters()
	events := (d1 - d0) + (w1 - w0) + (p1 - p0)
	t.Logf("%d batches: %d doorbells, %d wakes, %d parks", ops, d1-d0, w1-w0, p1-p0)
	if events > ops/5 {
		t.Fatalf("%d kernel-touching events across %d batches — steady state is not syscall-free", events, ops)
	}
}
