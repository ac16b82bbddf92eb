package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"halo/internal/flowcluster"
	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/packet"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// servingSpec describes one serving workload: its flow population, what the
// two callers do, and which layer they call into.
type servingSpec struct {
	name      string
	flows     int
	absent    int // extra never-inserted flows the readers also ask for
	pop       trafficgen.Popularity
	batch     int    // keys per call; 1 selects the single-key Lookup
	writer    bool   // caller B mutates; otherwise both callers read
	transport string // "" in-process table, else tcp|unix|shm
	nodes     int    // >0: that many cluster nodes behind a flowcluster.Router
	layer     string // span name of the call under test
	streamLen int    // pre-generated keys per caller, replayed in a cycle
}

var servingWorkloads = []servingSpec{
	{name: "table-uniform-1m", flows: 1 << 20, absent: 1 << 20 / 19, pop: trafficgen.Uniform, batch: 16,
		layer: "flowserve.Table.LookupMany", streamLen: 1 << 20},
	{name: "table-zipf-churn", flows: 100_000, pop: trafficgen.Zipf, batch: 16, writer: true,
		layer: "flowserve.Table.LookupMany", streamLen: 1 << 20},
	{name: "wire-tcp-batch16", flows: 100_000, pop: trafficgen.Zipf, batch: 16, transport: flowwire.TransportTCP,
		layer: "flowwire.Client.LookupMany", streamLen: 1 << 18},
	{name: "wire-shm-single", flows: 100_000, pop: trafficgen.Zipf, batch: 1, transport: flowwire.TransportShm,
		layer: "flowwire.Client.Lookup", streamLen: 1 << 18},
	{name: "cluster-3node-migrate", flows: 200_000, pop: trafficgen.Zipf, batch: 16, writer: true,
		transport: flowwire.TransportTCP, nodes: 3,
		layer: "flowcluster.Router.LookupMany", streamLen: 1 << 18},
}

const (
	tableShards   = 8
	callers       = 2
	writerOps     = 1 << 18
	moveEvery     = 2 * time.Second // cluster-3node-migrate: one MoveRange per interval
	setupRepeats  = 3
	drainPatience = 10 * time.Second
)

// moveRange is the fixed 1/8 of the hash space cluster-3node-migrate moves
// back and forth; it sits inside node 0's bootstrap third.
var moveRange = flowwire.Range{Lo: 0, Hi: 1 << 61}

// node is one in-process flowwire server on a real loopback listener.
type node struct {
	srv    *flowwire.Server
	served chan error
}

func startNode(ln net.Listener, cfg flowwire.Config) (*node, error) {
	srv, err := flowwire.NewServer(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{srv: srv, served: make(chan error, 1)}
	go func() { n.served <- srv.Serve(ln) }()
	return n, nil
}

// stop drains the server and reports replies it owed but never wrote — the
// zero-loss ledger, counted as failed operations.
func (n *node) stop() (lost uint64, err error) {
	rep := n.srv.Drain(drainPatience)
	if err := <-n.served; err != nil && !errors.Is(err, flowwire.ErrServerClosed) {
		return rep.Lost(), err
	}
	if !rep.Clean {
		return rep.Lost(), errors.New("drain timed out")
	}
	return rep.Lost(), nil
}

// listen opens a loopback listener for the transport: an ephemeral TCP port,
// or a socket path under dir.
func listen(transport, dir, name string) (net.Listener, flowwire.Endpoint, error) {
	ep := flowwire.Endpoint{Transport: transport, Addr: "127.0.0.1:0"}
	if transport != flowwire.TransportTCP {
		ep.Addr = filepath.Join(dir, name+".sock")
	}
	ln, err := flowwire.ListenEndpoint(ep)
	if err != nil {
		return nil, ep, err
	}
	if transport == flowwire.TransportTCP {
		ep.Addr = ln.Addr().String()
	}
	return ln, ep, nil
}

// newTable sizes a table for flows at a load factor of at most 0.8 (the
// bucket count rounds up to a power of two, so it is often lower).
func newTable(flows int) (*flowserve.Table, error) {
	entries := uint64(1)
	for entries < uint64(flows)*5/4 {
		entries <<= 1
	}
	return flowserve.New(flowserve.Config{Shards: tableShards, Entries: entries, KeyLen: packet.HeaderKeyLen})
}

// env is everything a serving workload builds before its timed window.
type env struct {
	pop     *population
	o       *oracle
	tables  []*flowserve.Table
	nodes   []*node
	rw      flowserve.ReadWriter // what the callers drive
	client  *flowwire.Client     // wire workloads
	router  *flowcluster.Router  // cluster workload: the callers' router…
	coord   *flowcluster.Router  // …and the migration coordinator's
	streams []stream
	ops     []wop

	setupS       float64
	bytesPerFlow float64 // heap-in-use growth across table creation and fill ÷ resident flows
	keygenNs     float64 // stream generation, per key
}

// probe is every component's counters plus the process totals at one instant.
type probe struct {
	snap             *stats.Snapshot
	proc             procSnap
	doorbells, parks uint64 // process-wide shm transport events
}

func (e *env) probe() probe {
	snap := stats.NewSnapshot()
	if len(e.nodes) == 0 {
		e.tables[0].CollectInto(snap)
	}
	for _, n := range e.nodes {
		n.srv.CollectInto(snap) // includes the node's table
	}
	if e.client != nil {
		e.client.CollectInto(snap)
	}
	if e.router != nil {
		e.router.CollectInto(snap)
	}
	pr := probe{snap: snap, proc: readProc()}
	pr.doorbells, _, pr.parks = flowwire.ShmCounters()
	return pr
}

// close tears the environment down (closing twice is harmless) and returns
// how many owed replies the servers lost while draining.
func (e *env) close() (lost uint64, err error) {
	if e.client != nil {
		e.client.Close()
	}
	for _, r := range []*flowcluster.Router{e.router, e.coord} {
		if r != nil {
			r.Close()
		}
	}
	for _, n := range e.nodes {
		l, nerr := n.stop()
		lost += l
		err = errors.Join(err, nerr)
	}
	e.client, e.router, e.coord, e.nodes = nil, nil, nil, nil
	return lost, err
}

// setup builds the environment for one run: population, filled tables,
// servers, dialled clients and every caller's key stream. All of it is timed
// as setup_s; none of it happens again inside the measured window.
func (ws servingSpec) setup(seed uint64, sockDir string) (*env, error) {
	start := time.Now()
	e := &env{pop: newPopulation(ws.flows, ws.absent, ws.pop, mix(seed, 0))}
	e.o = newOracle(e.pop, ws.writer)
	if err := ws.backend(e, sockDir); err != nil {
		e.close()
		return nil, err
	}

	keygenStart := time.Now()
	nReaders := callers
	if ws.writer {
		nReaders--
		e.ops = e.pop.newWriterOps(mix(seed, 1), writerOps)
	}
	for c := 0; c < nReaders; c++ {
		e.streams = append(e.streams, e.pop.newStream(mix(seed, uint64(2+c)), ws.streamLen))
	}
	e.keygenNs = float64(time.Since(keygenStart).Nanoseconds()) / float64(nReaders*ws.streamLen+len(e.ops))
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// backend creates and fills the tables for e.pop, serves them on the
// workload's transport and dials them, leaving e.rw as the layer the callers
// drive. On error the caller closes e.
func (ws servingSpec) backend(e *env, sockDir string) (err error) {
	// Cluster nodes need every endpoint before any of them starts, and the
	// fill needs the endpoints to know which node owns a key.
	nNodes := max(ws.nodes, 1)
	var lns []net.Listener
	var eps []flowwire.Endpoint
	defer func() {
		for _, ln := range lns[len(e.nodes):] { // listeners no server took over
			ln.Close()
		}
	}()
	if ws.transport != "" {
		for i := 0; i < nNodes; i++ {
			ln, ep, err := listen(ws.transport, sockDir, fmt.Sprintf("%s-n%d", ws.name, i))
			if err != nil {
				return err
			}
			lns, eps = append(lns, ln), append(eps, ep)
		}
	}
	owner := func([]byte) int { return 0 }
	if ws.nodes > 0 {
		owner = flowwire.UniformMap(eps).OwnerOfKey
	}

	heap0 := heapInuse()
	for i := 0; i < nNodes; i++ {
		// Any cluster node may end up holding its own share plus the moved range.
		t, err := newTable(ws.flows/nNodes + ws.flows/8*min(ws.nodes, 1))
		if err != nil {
			return err
		}
		e.tables = append(e.tables, t)
	}
	for i, key := range e.pop.keys[:e.pop.resident] {
		if err := e.tables[owner(key)].Insert(key, stamp(int32(i), 0)); err != nil {
			return fmt.Errorf("fill: flow %d: %w", i, err)
		}
	}
	e.bytesPerFlow = float64(heapInuse()-heap0) / float64(e.pop.resident)

	for i, ln := range lns {
		cfg := flowwire.Config{Table: e.tables[i]}
		if ws.nodes > 0 {
			cfg.Self, cfg.Cluster = eps[i], eps
		}
		n, err := startNode(ln, cfg)
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	opts := flowwire.Options{Conns: callers}
	switch {
	case ws.nodes > 0:
		if e.router, err = flowcluster.New(eps, flowcluster.Options{Client: opts}); err != nil {
			return err
		}
		if e.coord, err = flowcluster.New(eps, flowcluster.Options{}); err != nil {
			return err
		}
		e.rw = e.router
	case ws.transport != "":
		if e.client, err = flowwire.DialEndpoint(eps[0], opts); err != nil {
			return err
		}
		e.rw = e.client
	default:
		e.rw = e.tables[0]
	}
	return nil
}

// mover is the cluster workload's third party: every moveEvery it migrates
// moveRange to whichever of node 0 and node 1 does not hold it, while the
// callers keep reading and writing through their own router.
type mover struct {
	durs    []float64 // seconds per MoveRange
	records uint64    // snapshot + double-written records the losing nodes shipped
	errs    []error
}

func (m *mover) run(p *phases, coord *flowcluster.Router) {
	end := p.ends[len(p.ends)-1]
	for k := int64(1); ; k++ {
		at := p.ends[0] + k*int64(moveEvery)
		if at+int64(moveEvery)/2 > end {
			return
		}
		time.Sleep(time.Duration(at - p.now()))
		dst := int(k % 2) // 1, 0, 1, 0: the range ends the run where it began
		t := time.Now()
		mi, err := coord.MoveRange(moveRange, dst, drainPatience)
		if err != nil {
			m.errs = append(m.errs, err)
			continue
		}
		m.durs = append(m.durs, time.Since(t).Seconds())
		m.records += mi.Enqueued
	}
}

// sockDir returns a private directory for unix/shm socket files, inside the
// working directory when the path fits a sockaddr_un, else under the system
// temp directory. Removing it also removes any shm segment files.
func sockDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	base := filepath.Join(wd, ".bench_build")
	if len(base) > 70 { // sun_path is 108 bytes and segment files add a suffix
		base = os.TempDir()
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "sock-")
}

// run runs one serving workload end to end and returns its metrics. wrap,
// when non-nil, interposes on the Reader the callers drive (tests use it to
// prove that a wrong result is counted).
func (ws servingSpec) run(o runOpts, wrap func(flowserve.Reader) flowserve.Reader) (*runResult, error) {
	dir, err := sockDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up is repeated so setup_s and bytes per flow do not hang on one
	// sample; the last environment built is the one measured.
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	var setupS, bytesPerFlow []float64
	for r := 0; r < setupRepeats; r++ {
		if e != nil {
			if _, err := e.close(); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", r, err)
			}
		}
		if e, err = ws.setup(o.seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, e.setupS)
		bytesPerFlow = append(bytesPerFlow, e.bytesPerFlow)
	}
	res := newRunResult(ws.name, o)
	rd := flowserve.Reader(e.rw)
	if wrap != nil {
		rd = wrap(rd)
	}

	var readers []*reader
	for c, s := range e.streams {
		readers = append(readers, &reader{r: rd, s: s, batch: ws.batch, o: e.o, layer: ws.layer, rec: newRecorder(c)})
	}
	var wr *writer
	if ws.writer {
		wr = &writer{w: e.rw, ops: e.ops, keys: e.pop.keys, o: e.o}
	}
	var mv *mover
	if ws.nodes > 0 {
		mv = &mover{}
	}

	p := newPhases(o.seconds, o.traced)
	heapInuse() // collect set-up's garbage now, not inside the window
	var wg sync.WaitGroup
	p.base = time.Now()
	for _, c := range readers {
		wg.Add(1)
		go func() { defer wg.Done(); c.run(p) }()
	}
	if wr != nil {
		wg.Add(1)
		go func() { defer wg.Done(); wr.run(p) }()
	}
	if mv != nil {
		wg.Add(1)
		go func() { defer wg.Done(); mv.run(p, e.coord) }()
	}
	// Counter and process probes bracket the measured windows. They are only
	// taken on traced runs: ReadMemStats stops the world.
	var before, after probe
	if o.traced {
		time.Sleep(time.Duration(p.ends[0] - p.now()))
		before = e.probe()
	}
	wg.Wait()
	if o.traced {
		after = e.probe()
	}
	measuredS := float64(p.ends[windows]-p.ends[0]) / 1e9

	// End-to-end metrics.
	var lookupsPerS []float64
	for k := 1; k <= windows; k++ {
		var n uint64
		for _, c := range readers {
			n += c.lookups[k-1]
		}
		lookupsPerS = append(lookupsPerS, float64(n)/p.windowSeconds(k))
	}
	var writesPerS []float64
	if wr != nil {
		for k, n := range wr.writes {
			writesPerS = append(writesPerS, float64(n)/p.windowSeconds(k+1))
		}
	}
	// An end-to-end metric is reported only where measuredOn lists it. Rates
	// are a rank among the hundred windows, not the mean: see readRank and
	// writeRank.
	res.set("setup_s", median(setupS))
	if measured("lookups_per_s", ws.name) {
		res.set("lookups_per_s", quantile(lookupsPerS, readRank))
	}
	if wr != nil {
		res.set("writes_per_s", quantile(writesPerS, writeRank))
	}
	if measured("mem_bytes_per_flow", ws.name) {
		res.set("mem_bytes_per_flow", median(bytesPerFlow))
	}

	if o.traced {
		// The callers' own figures are read off the windows that ran untraced.
		p50s, p99s, samples := windowQuantiles(readers)
		res.set("call_p50_us", median(p50s[:windows/2]))
		res.set("call_p99_us", median(p99s[:windows/2]))
		res.set("loadgen.call_samples", float64(samples))
		res.set("loadgen.lookups_per_s", quantile(lookupsPerS[:windows/2], readRank))
		if wr != nil {
			res.set("loadgen.writes_per_s", quantile(writesPerS[:windows/2], writeRank))
		}
		ws.layerMetrics(res, e, readers, mv, before, after, measuredS, lookupsPerS)
	}

	racy := audit(res, e, rd, readers, wr, mv)
	if o.traced {
		res.traces = append(res.traces, ws.trace(o.seed, p, readers))
		if ws.name == ladderWorkload {
			if err := runLadder(res, e, dir); err != nil {
				return nil, fmt.Errorf("ladder: %w", err)
			}
		}
	}
	lost, err := e.close()
	if err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	res.failed += lost
	res.note("%d set-ups took %.3g s; %d results excused by a concurrent write, %d lost replies at drain; traffic crossed loopback inside one process, not a link",
		len(setupS), setupS, racy, lost)
	return res, nil
}

// audit adds up what the callers attempted and failed, then checks what no
// single call can: every migration succeeded and left no key on a node that
// does not own it, and every flow still holds its last written value. It
// returns how many results a concurrent write excused.
func audit(res *runResult, e *env, rd flowserve.Reader, readers []*reader, wr *writer, mv *mover) (racy uint64) {
	for _, c := range readers {
		res.attempted += c.attempted
		res.failed += c.failed
		racy += c.racy
	}
	if wr != nil {
		res.attempted += wr.attempted
		res.failed += wr.failed
	}
	if mv != nil {
		res.attempted += uint64(len(mv.durs) + len(mv.errs))
		res.failed += uint64(len(mv.errs))
		for _, err := range mv.errs {
			res.note("MoveRange: %v", err)
		}
		final := e.coord.Map()
		for ni, t := range e.tables {
			t.ScanRange(0, 0, func(key []byte, _ uint64) {
				res.attempted++
				if final.OwnerOfKey(key) != ni {
					res.failed++
				}
			})
		}
	}

	// Look every flow up once more: the callers have stopped, so every state
	// word has settled and a racy result would be a stuck flux word.
	const chunk = 256
	idx := make([]int32, chunk)
	s0 := make([]uint64, chunk)
	out := make([]flowserve.Result, chunk)
	for lo := 0; lo < len(e.pop.keys); lo += chunk {
		n := min(chunk, len(e.pop.keys)-lo)
		for i := range idx[:n] {
			idx[i] = int32(lo + i)
		}
		e.o.before(idx[:n], s0)
		rd.LookupMany(e.pop.keys[lo:lo+n], out)
		bad, stuck := e.o.check(idx[:n], s0, out[:n])
		res.attempted += uint64(n)
		res.failed += uint64(bad + stuck)
	}
	return racy
}

// trace gathers the callers' recorders into the workload's trace: the kept
// spans, and the totals over every traced call beside the wall time the
// callers ran traced.
func (ws servingSpec) trace(seed uint64, p *phases, readers []*reader) workloadTrace {
	wt := workloadTrace{Workload: ws.name, Seed: seed, SelfNs: make(map[string]int64)}
	for _, c := range readers {
		wt.Spans = append(wt.Spans, c.rec.spans()...)
		wt.Calls += c.rec.calls
		wt.WallNs += int64(p.tracedSeconds() * 1e9)
		wt.SelfNs[spanCall] += c.rec.rootNs - c.rec.layerNs - c.rec.verifyNs
		wt.SelfNs[ws.layer] += c.rec.layerNs
		wt.SelfNs[spanVerify] += c.rec.verifyNs
	}
	return wt
}
