package flowwire

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halo/internal/flowserve"
)

// TestGracefulDrainCompletesInFlight is the SIGTERM-equivalent shutdown
// audit: clients keep pipelined lookups in flight while Drain fires.
// Every frame the server accepted must be answered (report.Lost() == 0 and
// the accepted/replied ledger balances), every answered lookup must carry
// the correct value, and clients must see only clean connection-closed
// failures afterwards — never a lost or corrupt reply.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	srv, tbl, addr := startServer(t,
		flowserve.Config{Shards: 4, Entries: 8192, KeyLen: 20},
		Config{})
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if err := tbl.Insert(wkey(i), i*3+1); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 3
	const workersPerClient = 4
	var (
		wg        sync.WaitGroup
		succeeded atomic.Uint64
		failed    atomic.Uint64
		wrong     atomic.Uint64
	)
	start := make(chan struct{})
	for ci := 0; ci < clients; ci++ {
		cl := dialTest(t, addr, Options{Conns: 2})
		for wi := 0; wi < workersPerClient; wi++ {
			wg.Add(1)
			go func(cl *Client, seed uint64) {
				defer wg.Done()
				<-start
				keys := make([][]byte, 16)
				results := make([]flowserve.Result, 16)
				for op := uint64(0); ; op++ {
					if cl.Err() != nil {
						failed.Add(1)
						return
					}
					base := (seed*77 + op*16) % n
					for j := range keys {
						keys[j] = wkey((base + uint64(j)) % n)
					}
					hits := cl.LookupMany(keys, results)
					if cl.Err() != nil {
						// The in-flight call raced the drain: a clean
						// failure, results are all misses by contract.
						failed.Add(1)
						return
					}
					if hits != len(keys) {
						wrong.Add(1)
						return
					}
					for j := range keys {
						if results[j].Value != ((base+uint64(j))%n)*3+1 {
							wrong.Add(1)
							return
						}
					}
					succeeded.Add(1)
				}
			}(cl, uint64(ci*workersPerClient+wi))
		}
	}
	close(start)
	time.Sleep(50 * time.Millisecond) // let traffic build up in flight

	report := srv.Drain(10 * time.Second)
	wg.Wait()

	if !report.Clean {
		t.Fatalf("drain timed out with connections still busy: %+v", report)
	}
	if lost := report.Lost(); lost != 0 {
		t.Fatalf("drain lost %d accepted frames: %+v", lost, report)
	}
	if report.FramesAccepted+report.FramesRejected != report.RepliesWritten {
		t.Fatalf("frame/reply ledger unbalanced: %+v", report)
	}
	if report.FramesRejected != 0 {
		t.Fatalf("clean clients produced %d rejected frames", report.FramesRejected)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d batches carried wrong values or spurious misses", wrong.Load())
	}
	if succeeded.Load() == 0 {
		t.Fatal("no batch completed before the drain; the test exercised nothing")
	}
	if failed.Load() == 0 {
		t.Log("drain finished with no client observing the shutdown (all calls completed)")
	}
	t.Logf("drain: %d batches served, %d workers saw clean closure, report %+v",
		succeeded.Load(), failed.Load(), report)

	// The drained server accepts nothing new.
	if _, err := DialEndpoint(addr, Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("drained server accepted a new connection")
	}
}

// TestDrainIdleServer drains a server with no traffic at all.
func TestDrainIdleServer(t *testing.T) {
	srv, _, addr := startServer(t, flowserve.Config{Shards: 1, Entries: 128, KeyLen: 20}, Config{})
	cl := dialTest(t, addr, Options{})
	report := srv.Drain(5 * time.Second)
	if !report.Clean || report.Lost() != 0 {
		t.Fatalf("idle drain = %+v", report)
	}
	// The idle client's connection was closed out from under it; its next
	// call fails cleanly.
	if _, ok := cl.Lookup(wkey(1)); ok {
		t.Fatal("lookup on a drained server hit")
	}
	if err := cl.Err(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("client error after drain = %v, want ErrConnClosed", err)
	}
}
