package flowwire

import (
	"strings"
	"testing"
)

func TestParseEndpoint(t *testing.T) {
	cases := []struct {
		in   string
		want Endpoint
	}{
		{"tcp://127.0.0.1:7070", Endpoint{TransportTCP, "127.0.0.1:7070"}},
		{"tcp://[::1]:7070", Endpoint{TransportTCP, "[::1]:7070"}},
		{"unix:///tmp/flow.sock", Endpoint{TransportUnix, "/tmp/flow.sock"}},
		{"shm:///dev/shm/flow.ring", Endpoint{TransportShm, "/dev/shm/flow.ring"}},
	}
	for _, c := range cases {
		got, err := ParseEndpoint(c.in)
		if err != nil {
			t.Errorf("ParseEndpoint(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEndpoint(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String round-trips through ParseEndpoint.
		rt, err := ParseEndpoint(got.String())
		if err != nil || rt != got {
			t.Errorf("round-trip %q -> %q -> %+v (%v)", c.in, got.String(), rt, err)
		}
	}
}

// TestParseEndpointBareAddress pins the one default: no scheme means tcp.
func TestParseEndpointBareAddress(t *testing.T) {
	got, err := ParseEndpoint("127.0.0.1:7070")
	if err != nil || got != (Endpoint{TransportTCP, "127.0.0.1:7070"}) {
		t.Fatalf("bare addr = %+v, %v", got, err)
	}
	if _, err := ParseEndpoint("/tmp/x.sock"); err == nil {
		t.Fatal("a bare path parsed; path transports need their scheme")
	}
}

func TestParseEndpointErrors(t *testing.T) {
	cases := []struct {
		in   string
		frag string // expected substring of the error
	}{
		{"", "empty"},
		{"ftp://x:1", "unknown transport"},
		{"tcp://", "no address"},
		{"tcp://nohostport", "host:port"},
		{"unix://relative/path", "absolute"},
		{"shm://relative", "absolute"},
		{"unix://", "no address"},
	}
	for _, c := range cases {
		_, err := ParseEndpoint(c.in)
		if err == nil {
			t.Errorf("ParseEndpoint(%q): want error containing %q, got nil", c.in, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseEndpoint(%q) error %q does not mention %q", c.in, err, c.frag)
		}
	}
}

func TestParseEndpoints(t *testing.T) {
	eps, err := ParseEndpoints("cluster", "tcp://a:1, unix:///s.sock ,tcp://b:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Endpoint{
		{TransportTCP, "a:1"},
		{TransportUnix, "/s.sock"},
		{TransportTCP, "b:2"},
	}
	if len(eps) != len(want) {
		t.Fatalf("got %d endpoints, want %d", len(eps), len(want))
	}
	for i := range want {
		if eps[i] != want[i] {
			t.Errorf("endpoint %d = %+v, want %+v", i, eps[i], want[i])
		}
	}

	// Errors are positional and carry the flag name, matching listflag's
	// contract so cmd flag errors pinpoint the bad token.
	_, err = ParseEndpoints("cluster", "tcp://a:1,bogus://b:2")
	if err == nil || !strings.Contains(err.Error(), "-cluster") || !strings.Contains(err.Error(), "position 2") {
		t.Fatalf("bad token error = %v, want -cluster ... position 2", err)
	}
	_, err = ParseEndpoints("cluster", "tcp://a:1,tcp://a:1")
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate error = %v, want duplicate", err)
	}
}

func TestEndpointList(t *testing.T) {
	eps := []Endpoint{{TransportTCP, "a:1"}, {TransportUnix, "/s.sock"}}
	if got, want := EndpointList(eps), "tcp://a:1,unix:///s.sock"; got != want {
		t.Fatalf("EndpointList = %q, want %q", got, want)
	}
}
