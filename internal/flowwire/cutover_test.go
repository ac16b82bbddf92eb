package flowwire

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"halo/internal/flowserve"
)

// TestLookupParkedAcrossCutoverIsRedirected is the zero-loss rule of the
// cutover (DESIGN.md §13), made deterministic: a lookup on the losing node
// passes the ownership gate under the old map, and before it probes the table
// the whole cutover runs — seal, drain, install, purge. The probe then reads
// a purged table. The answer must be a WRONG_SHARD redirect at the new epoch,
// never StatusOK with a miss for a key that is live on the gaining node.
func TestLookupParkedAcrossCutoverIsRedirected(t *testing.T) {
	// Two cluster nodes; listeners first, so both know the full node set.
	var (
		eps  [2]Endpoint
		lns  [2]net.Listener
		srvs [2]*Server
	)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		eps[i] = Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}
	}
	var (
		armed    atomic.Bool
		cutover  []byte        // the encoded post-cutover map, set before armed
		cutoverS atomic.Uint32 // handleMapUpdate's status, plus one
	)
	for i := range srvs {
		tbl, err := flowserve.New(flowserve.Config{Shards: 2, Entries: 1024, KeyLen: 20})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{Table: tbl, Self: eps[i], Cluster: eps[:]})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Installed before Serve starts any goroutine that reads it.
			srv.hookGated = func() {
				if armed.CompareAndSwap(true, false) {
					cutoverS.Store(uint32(srv.handleMapUpdate(cutover)) + 1)
				}
			}
		}
		srvs[i] = srv
		serveErr := make(chan error, 1)
		go func(ln net.Listener) { serveErr <- srv.Serve(ln) }(lns[i])
		t.Cleanup(func() {
			srv.Close()
			if err := <-serveErr; err != nil && err != ErrServerClosed {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	a, b := dialTest(t, eps[0], Options{}), dialTest(t, eps[1], Options{})

	// A key node 0 owns at bootstrap, and the split that holds it.
	m, err := a.FetchShardMap()
	if err != nil {
		t.Fatal(err)
	}
	var key []byte
	for i := uint64(0); key == nil; i++ {
		if k := wkey(i); m.OwnerOfKey(k) == 0 {
			key = k
		}
	}
	if err := a.Insert(key, 4242); err != nil {
		t.Fatal(err)
	}
	rg := Range{Lo: m.Splits[0].Start, Hi: m.Splits[1].Start}

	// Arm the migration of node 0's range to node 1 and let it drain.
	if err := a.MigrateStart(rg, eps[1]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mi, err := a.MigrateStatus()
		if err != nil || mi.Err != "" {
			t.Fatalf("MIG_STATUS: %v %q", err, mi.Err)
		}
		if mi.SnapshotDone && mi.Acked == mi.Enqueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never drained: %+v", mi)
		}
		time.Sleep(time.Millisecond)
	}
	next := m.Clone()
	if err := next.Assign(rg, 1); err != nil {
		t.Fatal(err)
	}
	next.Epoch++
	if err := b.PushShardMap(next); err != nil { // gaining node first
		t.Fatal(err)
	}

	// The lookup: gated under epoch 1, then the hook cuts over, then it probes.
	cutover = AppendShardMap(nil, next)
	armed.Store(true)
	_, ok, err := lookupE(a, key)
	if st := cutoverS.Load(); st != uint32(StatusOK)+1 {
		t.Fatalf("the cutover did not run inside the lookup (status+1 = %d)", st)
	}
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("lookup parked across the cutover = (ok %v, err %v); want a WRONG_SHARD redirect, never a miss", ok, err)
	}
	if ws.Epoch != next.Epoch {
		t.Fatalf("redirect carries epoch %d, want the new map's %d", ws.Epoch, next.Epoch)
	}
	if v, ok, err := lookupE(b, key); err != nil || !ok || v != 4242 {
		t.Fatalf("lookup on the gaining node = (%d, %v, %v)", v, ok, err)
	}
	if got := srvs[0].cl.c.staleProbes.Load(); got != 1 {
		t.Fatalf("stale_probes = %d, want the one key probed under the replaced map", got)
	}
}
