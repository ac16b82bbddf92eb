package flowwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// The shm transport's connection setup (DESIGN.md §11). The listen address
// is a filesystem path, exactly like unix — a unix-domain socket is bound
// there and brokers every connection: the server creates a per-connection
// segment file next to the socket, maps it, and sends the client a small
// handshake message naming the file; the client maps the file, checks the
// segment header (ring.go: the one place the ring geometry is stated) and
// acks. The socket then stays open for the life of the
// connection as the doorbell and liveness channel, and the segment file is
// unlinked the moment the ack lands — from then on the memory is anonymous
// (the mappings keep it alive) and a crash leaks nothing.
//
// Handshake message, server → client (little-endian):
//
//	offset  size  field
//	0       4     magic ("HALO")
//	4       4     layout version
//	8       4     server PID
//	12      2     segment path length
//	14      ...   segment path
//
// Client → server: the ack byte (0x42) followed by the client's PID (4
// bytes). The PIDs feed the spin-budget choice (shmconn.go): a conn that
// knows its peer shares the process spins longer before parking. Either
// side failing or stalling past shmHandshakeTimeout aborts that connection
// without disturbing the listener.
const (
	shmHandshakeTimeout = 5 * time.Second
	shmAckByte          = 0x42
	shmHelloFixed       = 14
	shmAckLen           = 5
	shmMaxPathLen       = 4096
)

// shmSegSuffix marks segment files: <socket path> + shmSegSuffix + unique
// tail. The stale sweep globs this pattern, so it must stay in sync with
// segmentPath.
const shmSegSuffix = ".seg."

var errShmHandshake = errors.New("flowwire: shm handshake failed")

// shmListener accepts shm connections: a unix listener for the handshake
// plus the ring geometry every accepted connection gets.
type shmListener struct {
	ul        *net.UnixListener
	path      string
	ringBytes uint32
	seq       atomic.Uint64
}

// listenShm binds the handshake socket, sweeping stale artifacts (a dead
// server's socket and any orphaned segment files) first. ringBytes is the
// per-direction ring capacity each accepted connection gets.
func listenShm(path string, ringBytes uint32) (net.Listener, error) {
	if err := checkRingBytes(ringBytes); err != nil {
		return nil, err
	}
	removeStaleShm(path)
	ua, err := net.ResolveUnixAddr("unix", path)
	if err != nil {
		return nil, err
	}
	ul, err := net.ListenUnix("unix", ua)
	if err != nil {
		return nil, err
	}
	return &shmListener{ul: ul, path: path, ringBytes: ringBytes}, nil
}

// removeStaleShm unlinks a dead server's handshake socket and its orphaned
// segment files, mirroring removeStaleSocket: if anything answers the
// socket, a live server owns the path and nothing is touched. Segment
// files are normally unlinked at handshake time, so leftovers only exist
// when a server died inside the create-to-ack window — but they are real
// files on disk and this sweep is what lets a crashed flowserved restart
// cleanly.
func removeStaleShm(path string) {
	if fi, err := os.Lstat(path); err == nil && fi.Mode()&os.ModeSocket != 0 {
		nc, err := net.DialTimeout("unix", path, 250*time.Millisecond)
		if err == nil {
			nc.Close() // a live server owns the path; leave its segments alone
			return
		}
		os.Remove(path)
	} else if err == nil {
		return // path exists but is not a socket: let the bind report it
	}
	// A literal prefix match, not filepath.Glob: the path may hold glob
	// metacharacters.
	dir, prefix := filepath.Dir(path), filepath.Base(path)+shmSegSuffix
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

func (l *shmListener) segmentPath() string {
	return fmt.Sprintf("%s%s%d.%d", l.path, shmSegSuffix, os.Getpid(), l.seq.Add(1))
}

// Accept waits for a handshake to complete and returns the connection. A
// dialer that fails or stalls mid-handshake is dropped and the loop keeps
// accepting — one broken client must not wedge the listener.
func (l *shmListener) Accept() (net.Conn, error) {
	for {
		uc, err := l.ul.AcceptUnix()
		if err != nil {
			return nil, err
		}
		c, err := l.handshake(uc)
		if err != nil {
			uc.Close()
			continue
		}
		return c, nil
	}
}

// handshake runs the server side of connection setup on a freshly accepted
// unix conn: create + map + init the segment, name it to the client, wait
// for the ack, unlink the file.
func (l *shmListener) handshake(uc *net.UnixConn) (conn net.Conn, err error) {
	segPath := l.segmentPath()
	size := segmentSize(l.ringBytes)
	f, err := os.OpenFile(segPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("%w: create segment: %v", errShmHandshake, err)
	}
	defer func() {
		// The file entry is consumed on success (unlinked below) and must
		// not outlive a failure either.
		if err != nil {
			os.Remove(segPath)
		}
	}()
	if terr := f.Truncate(int64(size)); terr != nil {
		f.Close()
		return nil, fmt.Errorf("%w: size segment: %v", errShmHandshake, terr)
	}
	mem, err := mmapFile(f, size)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: map segment: %v", errShmHandshake, err)
	}
	defer func() {
		if err != nil {
			munmap(mem)
		}
	}()
	seg, err := initSegment(mem, l.ringBytes)
	if err != nil {
		return nil, err
	}

	uc.SetDeadline(time.Now().Add(shmHandshakeTimeout))
	hello := make([]byte, 0, shmHelloFixed+len(segPath))
	hello = binary.LittleEndian.AppendUint32(hello, shmMagic)
	hello = binary.LittleEndian.AppendUint32(hello, shmLayoutVer)
	hello = binary.LittleEndian.AppendUint32(hello, uint32(os.Getpid()))
	hello = binary.LittleEndian.AppendUint16(hello, uint16(len(segPath)))
	hello = append(hello, segPath...)
	if _, werr := uc.Write(hello); werr != nil {
		return nil, fmt.Errorf("%w: send hello: %v", errShmHandshake, werr)
	}
	var ack [shmAckLen]byte
	if _, rerr := io.ReadFull(uc, ack[:]); rerr != nil || ack[0] != shmAckByte {
		return nil, fmt.Errorf("%w: ack: %v (byte %#x)", errShmHandshake, rerr, ack[0])
	}
	clientPid := int(binary.LittleEndian.Uint32(ack[1:5]))
	// The client holds its own mapping now: the filesystem entry has done
	// its job, and unlinking it makes the segment's lifetime exactly the
	// two mappings' lifetime — a crash from here on leaks nothing.
	os.Remove(segPath)
	uc.SetDeadline(time.Time{})
	return newShmConn(seg, uc, l.path, true, clientPid), nil
}

func (l *shmListener) Close() error   { return l.ul.Close() }
func (l *shmListener) Addr() net.Addr { return shmAddr(l.path) }

// dialShm runs the client side: dial the handshake socket, learn the
// segment's path, map the file and check its header, ack.
func dialShm(addr string, timeout time.Duration) (conn net.Conn, err error) {
	nc, err := net.DialTimeout("unix", addr, timeout)
	if err != nil {
		return nil, err
	}
	uc := nc.(*net.UnixConn)
	defer func() {
		if err != nil {
			uc.Close()
		}
	}()
	if timeout <= 0 {
		timeout = shmHandshakeTimeout
	}
	uc.SetDeadline(time.Now().Add(timeout))

	var fixed [shmHelloFixed]byte
	if _, rerr := io.ReadFull(uc, fixed[:]); rerr != nil {
		return nil, fmt.Errorf("%w: hello: %v", errShmHandshake, rerr)
	}
	if m := binary.LittleEndian.Uint32(fixed[0:4]); m != shmMagic {
		return nil, fmt.Errorf("%w: magic %#x", errShmHandshake, m)
	}
	if v := binary.LittleEndian.Uint32(fixed[4:8]); v != shmLayoutVer {
		return nil, fmt.Errorf("%w: layout version %d, want %d", errShmHandshake, v, shmLayoutVer)
	}
	serverPid := int(binary.LittleEndian.Uint32(fixed[8:12]))
	pathLen := int(binary.LittleEndian.Uint16(fixed[12:14]))
	if pathLen == 0 || pathLen > shmMaxPathLen {
		return nil, fmt.Errorf("%w: segment path length %d", errShmHandshake, pathLen)
	}
	pathBuf := make([]byte, pathLen)
	if _, rerr := io.ReadFull(uc, pathBuf); rerr != nil {
		return nil, fmt.Errorf("%w: segment path: %v", errShmHandshake, rerr)
	}

	f, err := os.OpenFile(string(pathBuf), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: open segment: %v", errShmHandshake, err)
	}
	// Bound the size before mapping anything: attachSegment checks the
	// exact geometry, but only once the mapping exists.
	var mem []byte
	fi, err := f.Stat()
	switch {
	case err != nil:
	case fi.Size() < segHdrSize || fi.Size() > int64(segmentSize(maxShmRingBytes)):
		err = fmt.Errorf("%d bytes, outside [%d, %d]", fi.Size(), segHdrSize, segmentSize(maxShmRingBytes))
	default:
		mem, err = mmapFile(f, int(fi.Size()))
	}
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: segment: %v", errShmHandshake, err)
	}
	seg, err := attachSegment(mem)
	if err != nil {
		munmap(mem)
		return nil, err
	}
	ack := binary.LittleEndian.AppendUint32([]byte{shmAckByte}, uint32(os.Getpid()))
	if _, werr := uc.Write(ack); werr != nil {
		munmap(mem)
		return nil, fmt.Errorf("%w: send ack: %v", errShmHandshake, werr)
	}
	uc.SetDeadline(time.Time{})
	return newShmConn(seg, uc, addr, false, serverPid), nil
}
