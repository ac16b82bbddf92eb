package main

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"halo/internal/benchjson"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/loadgen"
	"halo/internal/packet"
	"halo/internal/stats"
)

const testFlows = 2_000

// startNodes serves n fresh tables on tcp loopback, as one cluster when
// n > 1, and returns their endpoints.
func startNodes(t *testing.T, n int) []flowwire.Endpoint {
	t.Helper()
	lns := make([]net.Listener, n)
	eps := make([]flowwire.Endpoint, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		eps[i] = flowwire.Endpoint{Transport: flowwire.TransportTCP, Addr: ln.Addr().String()}
	}
	for i, ln := range lns {
		tbl, err := loadgen.NewTable(testFlows, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := flowwire.Config{Table: tbl}
		if n > 1 {
			cfg.Self, cfg.Cluster = eps[i], eps
		}
		srv, err := flowwire.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		t.Cleanup(func() {
			srv.Close()
			if err := <-served; err != nil && err != flowwire.ErrServerClosed {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	return eps
}

// testTargets builds both targets in process: one flowwire server on tcp
// loopback, and a 3-node cluster with one MoveRange a point. It also returns
// the single server's endpoint.
func testTargets(t *testing.T) (map[string]target, flowwire.Endpoint) {
	t.Helper()
	ep := startNodes(t, 1)[0]
	client, err := clientTarget(ep, testFlows, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := clusterTarget(startNodes(t, 3), []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cluster.close(); err != nil {
			t.Errorf("coordinator: %v", err)
		}
	})
	return map[string]target{"client": client, "cluster": cluster}, ep
}

// droppingConn loses the first result of one batch in a hundred.
type droppingConn struct {
	conn
	calls *atomic.Uint64
}

func (d droppingConn) LookupMany(keys [][]byte, res []flowserve.Result) int {
	hits := d.conn.LookupMany(keys, res)
	if d.calls.Add(1)%100 == 0 && res[0].OK {
		res[0] = flowserve.Result{}
		hits--
	}
	return hits
}

// strayConn has a second client look one key up on the same server the
// first time the workers call: the server then serves one key the sweep
// never issued.
type strayConn struct {
	conn
	once  *sync.Once
	stray *flowwire.Client
}

func (s strayConn) LookupMany(keys [][]byte, res []flowserve.Result) int {
	s.once.Do(func() { s.stray.Lookup(keys[0]) })
	return s.conn.LookupMany(keys, res)
}

// wrapped returns tg with every conn it opens passed through wrap.
func wrapped(tg target, wrap func(conn) conn) target {
	open := tg.open
	tg.open = func(n int) (conn, error) {
		c, err := open(n)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
	return tg
}

// TestSweepAllTargets drives the one sweep loop over both targets, read-only
// and with churn; then shows that a single lost result fails the point in
// both — with churn that used to pass silently as a "transient" miss — and
// that the ledger needs no flag to catch a key served but never issued.
func TestSweepAllTargets(t *testing.T) {
	doc := &benchjson.Document{Config: map[string]string{}}
	targets, ep := testTargets(t)
	for _, name := range []string{"client", "cluster"} {
		for _, churn := range []int{0, 64} {
			cfg := sweepConfig{
				flows: testFlows, mixes: []string{"uniform", "zipf"}, workers: 4, ops: 20_000,
				batch: 16, churn: churn, seed: 1, rates: []int{0}, doc: doc,
			}
			before := len(doc.Benchmarks)
			if err := sweep(cfg, targets[name]); err != nil {
				t.Fatalf("%s churn=%d: %v", name, churn, err)
			}
			points := doc.Benchmarks[before:]
			if want := 2 * len(targets[name].counts); len(points) != want {
				t.Fatalf("%s churn=%d: %d points, want %d", name, churn, len(points), want)
			}
			for _, b := range points {
				if !strings.HasPrefix(b.Name, "FlowServe/"+targets[name].prefix+"mix=") || b.Iterations != cfg.ops/16*16 {
					t.Errorf("%s churn=%d: point %q with %d lookups", name, churn, b.Name, b.Iterations)
				}
				if churn == 0 && b.Metrics["misses"] != 0 {
					t.Errorf("%s: %v misses excused in a read-only point", b.Name, b.Metrics["misses"])
				}
			}

			calls := new(atomic.Uint64)
			err := sweep(cfg, wrapped(targets[name], func(c conn) conn { return droppingConn{c, calls} }))
			if err == nil || !strings.Contains(err.Error(), "missed with no writer in flux") {
				t.Fatalf("%s churn=%d with a dropped result: err = %v", name, churn, err)
			}
		}
	}
	if id := targets["cluster"].identity; id["mode"] != "cluster" || id["migrations"] != "1" || id["epoch"] != "1" {
		t.Errorf("cluster target's identity is %v", id)
	}

	stray, err := flowwire.DialEndpoint(ep, flowwire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	cfg := sweepConfig{
		flows: testFlows, mixes: []string{"uniform"}, workers: 2, ops: 2_000,
		batch: 16, seed: 1, rates: []int{0}, doc: doc,
	}
	err = sweep(cfg, wrapped(targets["client"], func(c conn) conn { return strayConn{c, new(sync.Once), stray} }))
	if err == nil || !strings.Contains(err.Error(), "lookup ledger off by 1 ") {
		t.Fatalf("a stray lookup from a second client: err = %v", err)
	}
}

// coercingConn publishes, beside its own counters, those of a client that
// coerced a failed call into a miss.
type coercingConn struct {
	conn
	broken *flowwire.Client
}

func (c coercingConn) CollectInto(snap *stats.Snapshot) {
	c.conn.CollectInto(snap)
	c.broken.CollectInto(snap)
}

// TestCoercedErrorGate: a lookup on a client whose server has closed counts
// as one coerced call, and one coerced call fails a point whose lookups,
// ledger and Err are otherwise clean.
func TestCoercedErrorGate(t *testing.T) {
	tbl, err := loadgen.NewTable(testFlows, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := flowwire.NewServer(flowwire.Config{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := flowwire.ListenEndpoint(flowwire.Endpoint{Transport: flowwire.TransportTCP, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	broken, err := flowwire.DialEndpoint(flowwire.Endpoint{Transport: flowwire.TransportTCP, Addr: ln.Addr().String()}, flowwire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer broken.Close()
	srv.Close()
	if err := <-served; err != flowwire.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if _, ok := broken.Lookup(make([]byte, packet.HeaderKeyLen)); ok {
		t.Fatal("a lookup on a closed server hit")
	}
	if got := coercedCalls(broken); got != 1 {
		t.Fatalf("one lookup on a closed server counted %d coerced calls, want 1", got)
	}

	tg, err := clientTarget(startNodes(t, 1)[0], testFlows, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepConfig{
		flows: testFlows, mixes: []string{"uniform"}, workers: 2, ops: 2_000,
		batch: 16, seed: 1, rates: []int{0}, doc: &benchjson.Document{Config: map[string]string{}},
	}
	err = sweep(cfg, wrapped(tg, func(c conn) conn { return coercingConn{c, broken} }))
	if err == nil || !strings.Contains(err.Error(), "1 transport errors were coerced") {
		t.Fatalf("a point with one coerced call: err = %v", err)
	}
}

// The mover toggles moveRange between its home node and the next, so a sweep
// of many points never runs out of moves.
func TestRunMigrationsToggles(t *testing.T) {
	tg, err := clusterTarget(startNodes(t, 3), []int{1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	moved, err := tg.along(make(chan struct{}))
	if moved != 3 || err != nil {
		t.Fatalf("moved %d, err %v", moved, err)
	}
	stopped := make(chan struct{})
	close(stopped)
	if moved, err := tg.along(stopped); moved != 0 || err != nil {
		t.Fatalf("after stop: moved %d, err %v", moved, err)
	}
}
