package flowwire

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"halo/internal/flowserve"
)

// startServerOn runs a server over a fresh table on the given transport and
// returns the endpoint to dial.
func startServerOn(t testing.TB, transport string, tblCfg flowserve.Config, srvCfg Config) (*Server, *flowserve.Table, Endpoint) {
	t.Helper()
	tbl, err := flowserve.New(tblCfg)
	if err != nil {
		t.Fatal(err)
	}
	srvCfg.Table = tbl
	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	ep := Endpoint{Transport: transport, Addr: "127.0.0.1:0"}
	if transport != TransportTCP {
		ep.Addr = filepath.Join(t.TempDir(), "flowserved.sock")
	}
	ln, err := ListenEndpoint(ep)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveErr; err != nil && err != ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	ep.Addr = ln.Addr().String()
	return srv, tbl, ep
}

// TestUnixTransportOps runs the full op surface over a unix-domain socket:
// the wire protocol and server runtime are transport-agnostic, so everything
// that works on TCP must work identically here.
func TestUnixTransportOps(t *testing.T) {
	_, tbl, addr := startServerOn(t, TransportUnix, flowserve.Config{Shards: 4, Entries: 4096, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{Conns: 2})

	if h := cl.Hello(); h.KeyLen != 20 || h.Shards != 4 || h.Capacity != tbl.Capacity() {
		t.Fatalf("HELLO over unix = %+v", h)
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
		t.Fatalf("clean unix run counted errors: %+v", c)
	}
}

// TestListenRemovesStaleUnixSocket pins flowserved restart behavior: a
// socket file left behind by a dead server (nobody accepting) is unlinked
// and rebound; a live server's socket is not stolen.
func TestListenRemovesStaleUnixSocket(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.sock")

	// Manufacture a stale socket: bind, keep the file past Close.
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

	ln, err := ListenEndpoint(Endpoint{Transport: TransportUnix, Addr: path})
	if err != nil {
		t.Fatalf("Listen over stale socket: %v", err)
	}
	defer ln.Close()

	// A second bind while the first is live must still fail.
	if ln2, err := ListenEndpoint(Endpoint{Transport: TransportUnix, Addr: path}); err == nil {
		ln2.Close()
		t.Fatal("Listen stole a live server's socket")
	}
}

func TestBadTransportRejected(t *testing.T) {
	if _, err := ListenEndpoint(Endpoint{Transport: "sctp", Addr: "x"}); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("ListenEndpoint error = %v, want ErrBadTransport", err)
	}
	if _, err := DialEndpoint(Endpoint{Transport: "sctp", Addr: "x"}, Options{}); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("DialEndpoint error = %v, want ErrBadTransport", err)
	}
	ln, err := ListenEndpoint(Endpoint{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("an empty transport should default to tcp, got %v", err)
	}
	ln.Close()
}

// TestNegativeTimeoutsRefused pins that a negative timeout is a
// configuration error naming its field, raised before anything listens or
// dials (a negative deadline is already past, so the server would reset every
// connection before answering HELLO), while zero still selects the default.
func TestNegativeTimeoutsRefused(t *testing.T) {
	tbl, err := flowserve.New(flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing listens here: a dial that got past the check would fail with
	// a dial error instead of the field's.
	ep := Endpoint{Transport: TransportUnix, Addr: filepath.Join(t.TempDir(), "absent.sock")}
	for _, tc := range []struct {
		field string // "" means no error expected
		cfg   Config
		opts  *Options // nil: the row builds a server
	}{
		{"", Config{}, nil},
		{"Config.IdleTimeout", Config{IdleTimeout: -time.Second}, nil},
		{"Config.WriteTimeout", Config{WriteTimeout: -time.Nanosecond}, nil},
		{"Options.DialTimeout", Config{}, &Options{DialTimeout: -time.Second}},
		{"Options.WriteTimeout", Config{}, &Options{WriteTimeout: -time.Second}},
		{"Options.CallTimeout", Config{}, &Options{CallTimeout: -time.Second}},
	} {
		if tc.opts != nil {
			_, err = DialEndpoint(ep, *tc.opts)
		} else {
			tc.cfg.Table = tbl
			var srv *Server
			if srv, err = NewServer(tc.cfg); err == nil && (srv.cfg.IdleTimeout != 2*time.Minute || srv.cfg.WriteTimeout != 30*time.Second) {
				t.Errorf("zero timeouts became %v/%v, want the 2m/30s defaults", srv.cfg.IdleTimeout, srv.cfg.WriteTimeout)
			}
		}
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("zero timeouts: %v", err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field+" -")):
			t.Errorf("negative %s: err = %v, want one naming the field", tc.field, err)
		}
	}
}

// TestMalformedFramesAllTransports runs the protocol-violation suite over
// every transport: typed rejects for unknown op / bad version, and a hard
// close for an oversized frame — identical behavior regardless of transport.
func TestMalformedFramesAllTransports(t *testing.T) {
	for _, transport := range []string{TransportTCP, TransportUnix, TransportShm} {
		t.Run(transport, func(t *testing.T) {
			_, _, addr := startServerOn(t, transport, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{MaxFrame: 1 << 16})
			dial := func() net.Conn {
				nc, err := dialTransport(addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { nc.Close() })
				return nc
			}

			// Unknown op: typed reject, connection survives.
			nc := dial()
			nc.Write(AppendFrame(nil, &Frame{Op: Op(99), ReqID: 1}))
			if f := readReply(t, nc); f.Status != StatusErrOp || f.ReqID != 1 {
				t.Fatalf("unknown op reply = %+v", f)
			}
			nc.Write(lookupFrame(nil, 2, wkey(1)))
			if f := readReply(t, nc); f.Status != StatusOK || f.ReqID != 2 {
				t.Fatalf("lookup after reject = %+v", f)
			}

			// Bad version: typed reject, then the server hangs up.
			nc = dial()
			bad := lookupFrame(nil, 3, wkey(1))
			bad[4] = Version + 1
			nc.Write(bad)
			if f := readReply(t, nc); f.Status != StatusErrVersion || f.ReqID != 3 {
				t.Fatalf("bad version reply = %+v", f)
			}
			assertClosed(t, nc)

			// Oversized length prefix: unrecoverable, reject + close.
			nc = dial()
			nc.Write(AppendFrameHeader(nil, OpLookupMany, StatusOK, 4, 1<<20)[:4])
			if f := readReply(t, nc); f.Status != StatusErrOversized {
				t.Fatalf("oversized reply = %+v", f)
			}
			assertClosed(t, nc)

			// Truncated frame: peer dies mid-payload; server just closes.
			nc = dial()
			full := lookupFrame(nil, 5, wkey(1))
			nc.Write(full[:len(full)-4])
			nc.Close()
		})
	}
}
