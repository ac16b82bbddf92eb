package flowwire

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"halo/internal/flowserve"
)

// purgeRecord is the MIG_APPLY record that clears [lo, hi) on the gaining
// node (hi == 0: to the end of the hash space).
func purgeRecord(lo, hi uint64) MigRecord {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], hi)
	return MigRecord{Kind: MigPurge, Value: lo, Key: k[:]}
}

// fillTable inserts keys 0..n-1 straight into the table.
func fillTable(t *testing.T, tbl *flowserve.Table, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(wkey(i), i+1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStandaloneServerRefusesMigApply: MIG_APPLY records bypass the
// ownership gate, so a server outside a cluster must refuse them — one purge
// record from any client used to empty its whole table.
func TestStandaloneServerRefusesMigApply(t *testing.T) {
	_, tbl, ep := startServer(t, flowserve.Config{Shards: 4, Entries: 1024, KeyLen: 20}, Config{})
	fillTable(t, tbl, 100)
	cl := dialTest(t, ep, Options{})

	applied, _, err := cl.MigApply([]MigRecord{purgeRecord(0, 0)})
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Status != StatusErrCluster {
		t.Fatalf("MIG_APPLY on a standalone server = (applied %d, err %v), want StatusErrCluster", applied, err)
	}
	if got := tbl.Size(); got != 100 {
		t.Fatalf("table size after a refused purge = %d, want 100", got)
	}
}

// startClusterNode serves a fresh table on tcp loopback as the one node of
// a cluster.
func startClusterNode(t *testing.T) (*Server, *flowserve.Table, Endpoint) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := Endpoint{Transport: TransportTCP, Addr: ln.Addr().String()}
	tbl, err := flowserve.New(flowserve.Config{Shards: 4, Entries: 1024, KeyLen: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Table: tbl, Self: ep, Cluster: []Endpoint{ep}})
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
	return srv, tbl, ep
}

// TestGainingSidePurgeIsCounted: the purge a migration sends first clears
// the gaining node's leftovers of an earlier attempt, and those removals
// land in flowwire.cluster.purged_keys like the losing side's.
func TestGainingSidePurgeIsCounted(t *testing.T) {
	srv, tbl, ep := startClusterNode(t)

	const total, lo, hi = 300, 1 << 62, 3 << 62
	fillTable(t, tbl, total)
	inRange := uint64(0)
	for i := uint64(0); i < total; i++ {
		if h := KeyHash(wkey(i)); h >= lo && h < hi {
			inRange++
		}
	}
	if inRange == 0 || inRange == total {
		t.Fatalf("%d of %d keys in range: the test needs keys on both sides", inRange, total)
	}

	before := srv.cl.c.purgedKeys.Load()
	cl := dialTest(t, ep, Options{})
	applied, conflicts, err := cl.MigApply([]MigRecord{purgeRecord(lo, hi)})
	if err != nil || applied != 1 || conflicts != 0 {
		t.Fatalf("MIG_APPLY[purge] = (applied %d, conflicts %d, err %v), want (1, 0, nil)", applied, conflicts, err)
	}
	if got := srv.cl.c.purgedKeys.Load() - before; got != inRange {
		t.Fatalf("purged_keys moved by %d, want the %d keys in range", got, inRange)
	}
	if got := tbl.Size(); got != total-inRange {
		t.Fatalf("table size after the purge = %d, want %d", got, total-inRange)
	}
}
