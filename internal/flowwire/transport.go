package flowwire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"
)

// Transport names. The wire protocol is byte-identical on every transport;
// only the dial/listen plumbing differs, so the Reader/Writer surface (and
// the frame codec, and the server runtime) is shared verbatim. Benchmark
// documents stamp the transport into their workload identity so benchdiff
// refuses cross-transport comparisons.
const (
	// TransportTCP serves "host:port" addresses over TCP (loopback or
	// cross-host). The historical default.
	TransportTCP = "tcp"
	// TransportUnix serves a filesystem socket path over unix-domain
	// stream sockets: same syscall count as TCP but no packetization,
	// checksumming or loopback queueing — the cheap same-host transport.
	TransportUnix = "unix"
	// TransportShm serves a filesystem path like unix, but the path only
	// brokers connection setup: each connection's byte stream lives in a
	// pair of SPSC rings inside an mmap-shared segment, so the steady-state
	// frame path makes zero syscalls — the fastest same-host transport
	// (DESIGN.md §11).
	TransportShm = "shm"
)

// ErrBadTransport reports an unknown transport name.
var ErrBadTransport = errors.New(`flowwire: unknown transport (want "tcp", "unix" or "shm")`)

// transports lists the transport names in wire-code order: a SHARD_MAP
// endpoint carries its transport as an index into this list, so it is only
// ever appended to.
var transports = [...]string{TransportTCP, TransportUnix, TransportShm}

// transportIndex returns transport's wire code ("" means TransportTCP).
func transportIndex(transport string) (byte, error) {
	if transport == "" {
		return 0, nil
	}
	for i, t := range transports {
		if t == transport {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrBadTransport, transport)
}

// CheckTransport validates a transport name ("" means TransportTCP).
func CheckTransport(transport string) (string, error) {
	i, err := transportIndex(transport)
	if err != nil {
		return "", err
	}
	return transports[i], nil
}

// ListenEndpoint opens a listener on a parsed endpoint: a TCP "host:port", a
// unix socket path, or a shm handshake-socket path. For the path-based
// transports, stale artifacts left by a dead server (a socket nobody answers
// on; for shm, orphaned segment files too) are removed before listening, so
// flowserved restarts cleanly; a live server's path is left alone and the
// bind fails as it should. The returned listener unlinks its socket on Close.
func ListenEndpoint(ep Endpoint) (net.Listener, error) {
	transport, err := CheckTransport(ep.Transport)
	if err != nil {
		return nil, err
	}
	switch transport {
	case TransportUnix:
		removeStaleSocket(ep.Addr)
	case TransportShm:
		return listenShm(ep.Addr, DefaultShmRingBytes)
	}
	return net.Listen(transport, ep.Addr)
}

// removeStaleSocket unlinks addr if it is a socket file nobody answers on.
func removeStaleSocket(addr string) {
	fi, err := os.Lstat(addr)
	if err != nil || fi.Mode()&os.ModeSocket == 0 {
		return // absent, or not a socket: let Listen report the real error
	}
	nc, err := net.DialTimeout(TransportUnix, addr, 250*time.Millisecond)
	if err == nil {
		nc.Close() // a live server owns it
		return
	}
	os.Remove(addr)
}

// dialTransport connects to ep, applying the TCP-only socket options where
// they exist.
func dialTransport(ep Endpoint, timeout time.Duration) (net.Conn, error) {
	transport, err := CheckTransport(ep.Transport)
	if err != nil {
		return nil, err
	}
	if transport == TransportShm {
		return dialShm(ep.Addr, timeout)
	}
	nc, err := net.DialTimeout(transport, ep.Addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return nc, nil
}
