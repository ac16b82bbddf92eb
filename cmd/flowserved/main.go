// Command flowserved serves a flowserve table over TCP, a unix-domain
// socket, or a shared-memory ring using the flowwire protocol (DESIGN.md
// §9, §11), turning the in-process serving runtime into a network-facing
// flow-classification service. Remote clients (flowload -remote, or any
// flowwire.Client) look up, insert, update and delete flows through
// versioned length-prefixed frames; the server coalesces pipelined lookup
// frames into shard-grouped batch lookups. The wire protocol and runtime
// are identical on every transport: one goroutine per connection reads a
// burst of frames, serves it and writes the replies. The startup line on
// stderr names the bound address, so a port of 0 can be read back from it.
//
// Usage:
//
//	flowserved                                    # listen on tcp://127.0.0.1:7411
//	flowserved -endpoint tcp://:7411 -shards 8    # all interfaces, 8 shards
//	flowserved -endpoint unix:///tmp/fs.sock      # unix-domain socket
//	flowserved -endpoint shm:///tmp/fs.sock       # shared-memory rings
//	flowserved -entries 2000000                   # bigger table
//	flowserved -endpoint tcp://127.0.0.1:0        # any free port, named on stderr
//
// Cluster mode makes the node one shard server of a cluster: -cluster names
// the full bootstrap node set (endpoints, comma-separated) and -endpoint
// must match one entry — that is this node's identity. The node then serves
// only the hash ranges its shard map assigns it, answers keys it does not
// own with a WRONG_SHARD redirect, and accepts live range migrations
// (DESIGN.md §13):
//
//	flowserved -endpoint tcp://10.0.0.1:7411 \
//	           -cluster tcp://10.0.0.1:7411,tcp://10.0.0.2:7411,tcp://10.0.0.3:7411
//
// On SIGTERM/SIGINT the server drains gracefully: it stops accepting
// connections, wakes idle ones, answers every frame already accepted, then
// prints the drain ledger and final counters. The exit status is 0 only
// when the drain was clean and no accepted frame went unanswered, so a
// supervisor (or CI) gating on the exit code gets the zero-loss guarantee.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/packet"
	"halo/internal/stats"
)

func main() {
	var (
		endpoint     = flag.String("endpoint", "tcp://127.0.0.1:7411", "serving endpoint: tcp://host:port, unix:///path or shm:///path")
		cluster      = flag.String("cluster", "", "comma-separated cluster endpoint list (must include -endpoint); enables cluster mode")
		shards       = flag.Int("shards", 4, "shard count (power of two)")
		entries      = flag.Uint64("entries", 1<<20, "total table capacity in entries")
		keyLen       = flag.Int("keylen", packet.HeaderKeyLen, "fixed key length in bytes")
		idleTimeout  = flag.Duration("idle-timeout", 0, "per-connection idle read timeout (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight work on SIGTERM")
	)
	flag.Parse()
	// A negative timeout is already past: every connection would be reset
	// before HELLO, or force-closed the moment SIGTERM arrives.
	if *idleTimeout < 0 {
		fatalf("-idle-timeout %v: must not be negative (0 selects the default)", *idleTimeout)
	}
	if *drainTimeout < 0 {
		fatalf("-drain-timeout %v: must not be negative", *drainTimeout)
	}

	ep, err := flowwire.ParseEndpoint(*endpoint)
	if err != nil {
		fatalf("-endpoint: %v", err)
	}
	var clusterEps []flowwire.Endpoint
	if *cluster != "" {
		if clusterEps, err = flowwire.ParseEndpoints("cluster", *cluster); err != nil {
			fatalf("%v", err)
		}
	}

	tbl, err := flowserve.New(flowserve.Config{
		Shards:  *shards,
		Entries: *entries,
		KeyLen:  *keyLen,
	})
	if err != nil {
		fatalf("table: %v", err)
	}
	srv, err := flowwire.NewServer(flowwire.Config{
		Table:       tbl,
		IdleTimeout: *idleTimeout,
		Self:        ep,
		Cluster:     clusterEps,
	})
	if err != nil {
		fatalf("server: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	// Bind before serving, so the startup line carries the resolved address
	// (the port the kernel picked for -endpoint tcp://127.0.0.1:0).
	ln, err := flowwire.ListenEndpoint(ep)
	if err != nil {
		fatalf("%v", err)
	}
	mode := ""
	if len(clusterEps) > 0 {
		mode = fmt.Sprintf(" cluster=%d-node", len(clusterEps))
	}
	fmt.Fprintf(os.Stderr, "flowserved: serving on %s://%s (shards=%d entries=%d keylen=%d%s)\n",
		ep.Transport, ln.Addr(), tbl.Shards(), tbl.Capacity(), tbl.KeyLen(), mode)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		// Serve failed on its own (the listener was torn down).
		if err != nil && err != flowwire.ErrServerClosed {
			fatalf("%v", err)
		}
		return
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "flowserved: %v — draining (timeout %v)\n", s, *drainTimeout)
	}

	report := srv.Drain(*drainTimeout)
	<-done // Serve returns ErrServerClosed once the listener is down

	snap := stats.NewSnapshot()
	srv.CollectInto(snap)
	printCounters(snap)
	fmt.Fprintf(os.Stderr,
		"flowserved: drain conns=%d accepted=%d rejected=%d replied=%d lost=%d clean=%v\n",
		report.Conns, report.FramesAccepted, report.FramesRejected,
		report.RepliesWritten, report.Lost(), report.Clean)

	if !report.Clean {
		fatalf("drain timed out with connections still busy")
	}
	if report.Lost() != 0 {
		fatalf("drain lost %d accepted frames", report.Lost())
	}
}

func printCounters(snap *stats.Snapshot) {
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "flowserved:   %-32s %d\n", n, snap.Counters[n])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flowserved: "+format+"\n", args...)
	os.Exit(1)
}
