package flowwire

import (
	"fmt"
	"strings"

	"halo/internal/listflag"
)

// Endpoint is one parsed serving address: a transport plus the address the
// transport understands. One value carries both halves, so a heterogeneous
// endpoint list (a TCP node next to a unix-socket node next to an shm node)
// is just []Endpoint.
//
// The canonical text form is a URL-ish scheme prefix:
//
//	tcp://host:port      TCP (loopback or cross-host)
//	unix:///path.sock    unix-domain stream socket
//	shm:///path.sock     shared-memory rings (path brokers the handshake)
//
// A bare "host:port" (no scheme) parses as TCP.
type Endpoint struct {
	Transport string // TransportTCP, TransportUnix or TransportShm
	Addr      string // "host:port" for tcp; a filesystem path otherwise
}

// String renders the canonical form (always scheme-prefixed, so a parsed
// endpoint round-trips and benchmark identities are unambiguous).
func (e Endpoint) String() string {
	return e.Transport + "://" + e.Addr
}

// IsZero reports an unset endpoint.
func (e Endpoint) IsZero() bool { return e.Transport == "" && e.Addr == "" }

// ParseEndpoint parses the canonical endpoint form. A bare address with no
// scheme defaults to tcp.
func ParseEndpoint(s string) (Endpoint, error) {
	if s == "" {
		return Endpoint{}, fmt.Errorf("flowwire: empty endpoint")
	}
	transport := TransportTCP
	addr := s
	if i := strings.Index(s, "://"); i >= 0 {
		transport = s[:i]
		addr = s[i+3:]
	}
	transport, err := CheckTransport(transport)
	if err != nil {
		return Endpoint{}, fmt.Errorf("endpoint %q: %w", s, err)
	}
	if addr == "" {
		return Endpoint{}, fmt.Errorf("flowwire: endpoint %q has no address", s)
	}
	switch transport {
	case TransportUnix, TransportShm:
		if !strings.HasPrefix(addr, "/") {
			return Endpoint{}, fmt.Errorf("flowwire: endpoint %q: %s address must be an absolute path", s, transport)
		}
	case TransportTCP:
		if !strings.Contains(addr, ":") {
			return Endpoint{}, fmt.Errorf("flowwire: endpoint %q: tcp address must be host:port", s)
		}
	}
	return Endpoint{Transport: transport, Addr: addr}, nil
}

// ParseEndpoints parses a comma-separated endpoint list flag, with
// positional errors in the listflag style (-name: bad token "x" at position
// N). Duplicate endpoints are an error: a cluster node list must name each
// node exactly once.
func ParseEndpoints(name, value string) ([]Endpoint, error) {
	toks, err := listflag.Strings(name, value)
	if err != nil {
		return nil, err
	}
	out := make([]Endpoint, len(toks))
	seen := make(map[string]int, len(toks))
	for i, tok := range toks {
		ep, err := ParseEndpoint(tok)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad token %q at position %d: %v", name, tok, i+1, err)
		}
		if j, dup := seen[ep.String()]; dup {
			return nil, fmt.Errorf("-%s: endpoint %q at position %d duplicates position %d", name, tok, i+1, j+1)
		}
		seen[ep.String()] = i
		out[i] = ep
	}
	return out, nil
}

// EndpointList renders endpoints in canonical comma-joined form — the
// benchmark workload-identity stamp, so benchdiff refuses cross-topology
// comparisons.
func EndpointList(eps []Endpoint) string {
	parts := make([]string, len(eps))
	for i, ep := range eps {
		parts[i] = ep.String()
	}
	return strings.Join(parts, ",")
}
