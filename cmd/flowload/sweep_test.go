package main

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"halo/internal/benchjson"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/loadgen"
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

// testTargets builds the three targets in process: a table, one flowwire
// server on tcp loopback, and a 3-node cluster with one MoveRange a point.
func testTargets(t *testing.T) map[string]target {
	t.Helper()
	table := tableTarget(testFlows, []int{1, 2})
	// Two toy points on a shared test machine say nothing about scaling.
	table.scaling = false
	client, err := clientTarget(startNodes(t, 1)[0], testFlows, []int{2})
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
	return map[string]target{"table": table, "client": client, "cluster": cluster}
}

// dropper loses the first result of one batch in a hundred.
type dropper struct {
	flowserve.Reader
	calls *atomic.Uint64
}

func (d dropper) LookupMany(keys [][]byte, res []flowserve.Result) int {
	hits := d.Reader.LookupMany(keys, res)
	if d.calls.Add(1)%100 == 0 && res[0].OK {
		res[0] = flowserve.Result{}
		hits--
	}
	return hits
}

// droppingConn hands its workers droppers.
type droppingConn struct {
	conn
	calls *atomic.Uint64
}

func (d droppingConn) reader() flowserve.Reader { return dropper{d.conn.reader(), d.calls} }

// dropping wraps every conn the target opens.
func dropping(tg target) target {
	open, calls := tg.open, new(atomic.Uint64)
	tg.open = func(n int) (conn, error) {
		c, err := open(n)
		return droppingConn{c, calls}, err
	}
	return tg
}

// TestSweepAllTargets drives the one sweep loop over all three targets with
// -check semantics, read-only and with churn; then shows that a single lost
// result fails the point in both — with churn that used to pass silently as a
// "transient" miss.
func TestSweepAllTargets(t *testing.T) {
	doc := &benchjson.Document{Config: map[string]string{}}
	targets := testTargets(t)
	for _, name := range []string{"table", "client", "cluster"} {
		for _, churn := range []int{0, 64} {
			cfg := sweepConfig{
				flows: testFlows, mixes: []string{"uniform", "zipf"}, workers: 4, ops: 20_000,
				batch: 16, churn: churn, seed: 1, rates: []int{0}, check: true, doc: doc,
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

			err := sweep(cfg, dropping(targets[name]))
			if err == nil || !strings.Contains(err.Error(), "missed with no writer in flux") {
				t.Fatalf("%s churn=%d with a dropped result: err = %v", name, churn, err)
			}
		}
	}
	if id := targets["cluster"].identity; id["mode"] != "cluster" || id["migrations"] != "1" || id["epoch"] != "1" {
		t.Errorf("cluster target's identity is %v", id)
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
