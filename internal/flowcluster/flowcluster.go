// Package flowcluster is cluster-scale serving: a router that fronts a set
// of flowserved nodes behind the same flowserve.Reader/Writer surface a
// single *flowwire.Client (or an in-process *flowserve.Table) presents, so
// cmd/flowload drives one node or a whole cluster through one code path.
//
// Routing is per-key via a versioned shard map (hash-range → node,
// flowwire.ShardMap) learned from the nodes at dial time. A request routes
// by one immutable view — the map plus the per-node clients indexed by node
// id, behind one atomic pointer — that is rebuilt, and any node new to the
// router dialed, only when a newer map is installed. LookupMany groups a
// batch's keys by owning node, writes the per-node sub-batches back-to-back
// from the caller's goroutine over the pooled per-node clients and then
// collects the replies in the same order, reading each node's connection
// itself — a client has no reader goroutine, so the fan-out wakes nobody; a
// single-key Lookup is a one-key LookupMany, and mutations route to the
// range owner through one loop (Router.do). When a
// node answers WRONG_SHARD — its map is newer than the router's, i.e. a live
// migration cut over — the router refetches the map from that node, installs
// it and re-routes the rejected keys, so a migration in flight costs
// redirected-and-retried requests, never lost or duplicated ones
// (DESIGN.md §13).
//
// The router doubles as the migration coordinator: MoveRange drives the
// losing node's snapshot+double-write engine, waits for the ledger to
// balance, and performs the epoch-bumped map push that is the cutover.
package flowcluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/stats"
)

// maxRedirects bounds WRONG_SHARD re-route rounds per operation. Each
// round refreshes the map from the rejecting node, so two is already
// enough for any single cutover; the bound only guards against a
// misconfigured cluster disagreeing with itself.
const maxRedirects = 4

// Options parametrises New. The zero value works.
type Options struct {
	// Client is the per-node client configuration (pool size, timeouts);
	// the transport is each node's endpoint's own.
	Client flowwire.Options
}

// routerCounters make routing behavior observable under flowcluster.*:
// redirects and refreshes quantify a migration's cost, errors feed
// flowload's coerced-error gate exactly like flowwire.client.errors does.
type routerCounters struct {
	redirects  atomic.Uint64 // WRONG_SHARD replies followed
	refreshes  atomic.Uint64 // shard-map refetches
	errors     atomic.Uint64 // operations coerced to miss/false by failure
	batches    atomic.Uint64 // LookupMany calls, one-key Lookups included
	subBatches atomic.Uint64 // per-node sub-batches issued
	exhausted  atomic.Uint64 // operations that ran out of redirect rounds
}

// Router is a cluster-aware remote table: flowserve.Reader and
// flowserve.Writer over a set of flowserved nodes. Safe for concurrent use.
type Router struct {
	opts   Options
	keyLen int

	// v is what every request routes by: one load, no lock.
	v atomic.Pointer[view]

	mu      sync.Mutex // guards clients and closed, serialises install
	clients map[flowwire.Endpoint]*flowwire.Client
	closed  bool

	scratch sync.Pool // *scatter: LookupMany's per-call scratch

	c routerCounters
}

// view is one immutable routing state: a shard map and, indexed by node id,
// the client each of its nodes is reached through. A node that could not be
// dialed when the map was installed has a nil client and the dial error; it
// stays that way until the next install tries again.
type view struct {
	m       *flowwire.ShardMap
	clients []*flowwire.Client
	errs    []error
}

// client returns node i's client, or why there is none.
func (v *view) client(i int) (*flowwire.Client, error) { return v.clients[i], v.errs[i] }

var (
	_ flowserve.Reader = (*Router)(nil)
	_ flowserve.Writer = (*Router)(nil)
)

// New dials every endpoint, checks the nodes agree on key length, and
// adopts the highest-epoch shard map any of them reports. The endpoint
// list may be heterogeneous (tcp next to unix next to shm) — each node's
// endpoint carries its own transport.
func New(eps []flowwire.Endpoint, opts Options) (*Router, error) {
	if len(eps) == 0 {
		return nil, errors.New("flowcluster: no endpoints")
	}
	r := &Router{opts: opts, clients: make(map[flowwire.Endpoint]*flowwire.Client, len(eps))}
	var best *flowwire.ShardMap
	for _, ep := range eps {
		cl, err := r.dial(ep)
		if err != nil {
			r.Close()
			return nil, err
		}
		if r.keyLen == 0 {
			r.keyLen = cl.KeyLen()
		} else if cl.KeyLen() != r.keyLen {
			r.Close()
			return nil, fmt.Errorf("flowcluster: %s serves %d-byte keys, %s %d-byte", eps[0], r.keyLen, ep, cl.KeyLen())
		}
		m, err := cl.FetchShardMap()
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("flowcluster: fetch shard map from %s: %w", ep, err)
		}
		if m != nil && (best == nil || m.Epoch > best.Epoch) {
			best = m
		}
	}
	if best == nil {
		r.Close()
		return nil, errors.New("flowcluster: no node reports a shard map (not a cluster?)")
	}
	r.install(best)
	return r, nil
}

// Map returns the router's current shard map.
func (r *Router) Map() *flowwire.ShardMap { return r.v.Load().m }

// Epoch returns the current map epoch — benchmark documents stamp it into
// their workload identity.
func (r *Router) Epoch() uint64 { return r.Map().Epoch }

// KeyLen returns the cluster's fixed key length.
func (r *Router) KeyLen() int { return r.keyLen }

// dial returns the client for ep, connecting it if this router has not yet.
// The caller holds r.mu (or is New, before the router is shared).
func (r *Router) dial(ep flowwire.Endpoint) (*flowwire.Client, error) {
	if cl := r.clients[ep]; cl != nil {
		return cl, nil
	}
	cl, err := flowwire.DialEndpoint(ep, r.opts.Client)
	if err == nil {
		r.clients[ep] = cl
	}
	return cl, err
}

// install adopts m if it is newer than the current map, dialing the nodes
// it names that this router has not reached yet: a node is connected when
// the map naming it arrives, not when the first key routes to it. Requests
// never take r.mu, so a slow dial here delays only other installs and the
// admin calls (Err, CollectInto, Close).
func (r *Router) install(m *flowwire.ShardMap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.v.Load(); r.closed || cur != nil && m.Epoch <= cur.m.Epoch {
		return
	}
	v := &view{m: m, clients: make([]*flowwire.Client, len(m.Nodes)), errs: make([]error, len(m.Nodes))}
	for i, ep := range m.Nodes {
		v.clients[i], v.errs[i] = r.dial(ep)
	}
	r.v.Store(v)
}

// redirected reports whether err is cl's WRONG_SHARD reply and, if it is,
// follows it: the redirect is counted and the map refetched from cl — on a
// cutover the rejecting node is the one guaranteed to already hold the
// bumped map — and installed, so the caller's next round routes by it. A
// dial error is never a redirect, so cl is only nil on the false path. The
// client returns the redirect unwrapped, so a type assertion finds it; unlike
// errors.As, it costs a failing operation no allocation.
func (r *Router) redirected(cl *flowwire.Client, err error) bool {
	if _, ok := err.(*flowwire.WrongShardError); !ok {
		return false
	}
	r.c.redirects.Add(1)
	r.c.refreshes.Add(1)
	if m, err := cl.FetchShardMap(); err == nil && m != nil {
		r.install(m)
	}
	return true
}

// Err returns the first sticky transport failure of any per-node client.
func (r *Router) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cl := range r.clients {
		if err := cl.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close tears down every per-node client.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for _, cl := range r.clients {
		cl.Close()
	}
	return nil
}

// CollectInto publishes the router's own counters (flowcluster.*) plus each
// per-node client's counters (flowwire.client.*, summed).
func (r *Router) CollectInto(snap *stats.Snapshot) {
	snap.Add("flowcluster.redirects", r.c.redirects.Load())
	snap.Add("flowcluster.map_refreshes", r.c.refreshes.Load())
	snap.Add("flowcluster.errors", r.c.errors.Load())
	snap.Add("flowcluster.batches", r.c.batches.Load())
	snap.Add("flowcluster.subbatches", r.c.subBatches.Load())
	snap.Add("flowcluster.redirects_exhausted", r.c.exhausted.Load())
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cl := range r.clients {
		cl.CollectInto(snap)
	}
}

// StatsSnapshot aggregates every node's typed stats plus the router's own
// counters into one cluster rollup — per-node and cluster-level aggregation
// share the stats.Snapshot.Merge code path.
func (r *Router) StatsSnapshot() (*stats.Snapshot, error) {
	rollup := stats.NewSnapshot()
	v := r.v.Load()
	for i, ep := range v.m.Nodes {
		cl, err := v.client(i)
		if err != nil {
			return nil, err
		}
		snap, err := cl.StatsSnapshot()
		if err != nil {
			return nil, fmt.Errorf("flowcluster: stats from %s: %w", ep, err)
		}
		rollup.Merge(snap)
	}
	r.CollectInto(rollup)
	return rollup, nil
}

// do is the one single-key mutation loop: op runs against key's owner under
// the current view, and a WRONG_SHARD reply is followed (redirected installs
// the rejecting node's map) for up to maxRedirects further rounds. Whatever
// else op returns — nil, a table-semantics error, a transport failure — is
// the caller's, as is the dial error of an owner the view has no client for.
func (r *Router) do(key []byte, op func(*flowwire.Client) error) error {
	if len(key) != r.keyLen {
		return flowserve.ErrKeyLen
	}
	for round := 0; round <= maxRedirects; round++ {
		v := r.v.Load()
		cl, err := v.client(v.m.OwnerOfKey(key))
		if err == nil {
			err = op(cl)
		}
		if err == nil || !r.redirected(cl, err) {
			return err
		}
	}
	r.c.exhausted.Add(1)
	return fmt.Errorf("flowcluster: redirected more than %d times", maxRedirects)
}

// count makes a failure that an error-free Reader/Writer signature is about
// to coerce into a miss/false visible in flowcluster.errors. A wrong-length
// key is the caller's miss, not a failure.
func (r *Router) count(err error) {
	if err != nil && !errors.Is(err, flowserve.ErrKeyLen) {
		r.c.errors.Add(1)
	}
}

// Lookup implements flowserve.Reader as a one-key LookupMany: one frame to
// the owner, following WRONG_SHARD redirects.
func (r *Router) Lookup(key []byte) (uint64, bool) {
	keys, res := [1][]byte{key}, [1]flowserve.Result{}
	r.LookupMany(keys[:], res[:])
	return res[0].Value, res[0].OK
}

// scatter is one LookupMany call's scratch, pooled per router so the steady
// state allocates nothing: the key indexes still to be answered, the ones a
// round has to re-route, and one sub-batch per node of the view.
type scatter struct {
	pending, retry []int
	owners         []subBatch // indexed by node id
}

// subBatch is what one round sends one node: idx[j] is the position in the
// caller's keys and results of keys[j]. err is first why there is no ticket
// to wait on (nil: lt is one), then what the wait returned.
type subBatch struct {
	idx  []int
	keys [][]byte
	lt   flowwire.LookupTicket
	err  error
}

// LookupMany implements flowserve.Reader: keys are grouped by owning node
// under the current map, every node's sub-batch is written from the caller's
// goroutine before the first reply is waited for, and any WRONG_SHARD-rejected
// sub-batch is re-grouped under the refreshed map and retried. Failed keys
// (transport errors, redirect rounds exhausted) are misses, counted in
// flowcluster.errors.
func (r *Router) LookupMany(keys [][]byte, results []flowserve.Result) int {
	n := len(keys)
	_ = results[:n]
	r.c.batches.Add(1)
	s, _ := r.scratch.Get().(*scatter)
	if s == nil {
		s = new(scatter)
	}
	s.pending = s.pending[:0]
	for i := range keys {
		results[i] = flowserve.Result{}
		if len(keys[i]) == r.keyLen {
			s.pending = append(s.pending, i)
		}
	}
	for round := 0; round <= maxRedirects && len(s.pending) > 0; round++ {
		r.lookupRound(s, keys, results)
	}
	if len(s.pending) > 0 {
		r.c.exhausted.Add(1)
		r.c.errors.Add(uint64(len(s.pending)))
	}
	r.scratch.Put(s)
	hits := 0
	for i := range results[:n] {
		if results[i].OK {
			hits++
		}
	}
	return hits
}

// lookupRound is one routing round for the key indexes in s.pending, issue
// then collect: group them by owner under the current view, start every
// non-empty sub-batch in node order, wait on every started ticket in the same
// order — each exactly once, whatever the others returned — and only then
// follow the redirects, so a refresh never runs with a reply outstanding.
// It leaves in s.pending the indexes a WRONG_SHARD reply rejected, to be
// re-routed under the view the round refreshed; a node that is dead or was
// never dialed costs exactly its own keys in flowcluster.errors.
func (r *Router) lookupRound(s *scatter, keys [][]byte, results []flowserve.Result) {
	v := r.v.Load()
	for len(s.owners) < len(v.clients) {
		s.owners = append(s.owners, subBatch{})
	}
	owners := s.owners[:len(v.clients)]
	for _, i := range s.pending {
		b := &owners[v.m.OwnerOfKey(keys[i])]
		b.idx = append(b.idx, i)
		b.keys = append(b.keys, keys[i])
	}
	for node := range owners {
		b := &owners[node]
		if len(b.idx) == 0 {
			continue
		}
		r.c.subBatches.Add(1)
		cl, err := v.client(node)
		if err == nil {
			b.lt, err = cl.StartLookupMany(b.keys)
		}
		b.err = err
	}
	for node := range owners {
		if b := &owners[node]; len(b.idx) > 0 && b.err == nil {
			b.err = b.lt.Wait(results, b.idx)
		}
	}
	s.retry = s.retry[:0]
	for node := range owners {
		b := &owners[node]
		if b.err != nil {
			if r.redirected(v.clients[node], b.err) {
				s.retry = append(s.retry, b.idx...)
			} else {
				r.c.errors.Add(uint64(len(b.idx)))
			}
		}
		clear(b.keys) // the scratch must not keep the caller's keys alive
		*b = subBatch{idx: b.idx[:0], keys: b.keys[:0]}
	}
	s.pending, s.retry = s.retry, s.pending
}

// Insert implements flowserve.Writer, routing to the range owner and
// following redirects. Table-semantics errors pass through untyped-free
// (flowserve.ErrKeyExists etc.), exactly as a single Client's would.
func (r *Router) Insert(key []byte, value uint64) error {
	return r.do(key, func(cl *flowwire.Client) error { return cl.Insert(key, value) })
}

// Update implements flowserve.Writer; false on absent key or failure
// (failures counted in flowcluster.errors).
func (r *Router) Update(key []byte, value uint64) (found bool) {
	r.count(r.do(key, func(cl *flowwire.Client) (err error) {
		found, err = cl.UpdateE(key, value)
		return err
	}))
	return found
}

// Delete implements flowserve.Writer; false on absent key or failure
// (failures counted in flowcluster.errors).
func (r *Router) Delete(key []byte) (found bool) {
	r.count(r.do(key, func(cl *flowwire.Client) (err error) {
		found, err = cl.DeleteE(key)
		return err
	}))
	return found
}

// migPollInterval paces MIG_STATUS polls while the snapshot streams.
const migPollInterval = 5 * time.Millisecond

// MoveRange live-migrates the hash range rg from its current owner to
// dstNode (an index into the shard map's node list), driving the losing
// node's snapshot+double-write engine and performing the epoch-bumped map
// push that cuts over. It returns the losing node's final migration ledger;
// on success the ledger balances (Enqueued == Sent == Acked) — the zero-loss
// handoff invariant, the cluster analogue of the drain ledger's
// accepted + rejected == replied.
func (r *Router) MoveRange(rg flowwire.Range, dstNode int, timeout time.Duration) (flowwire.MigInfo, error) {
	v := r.v.Load()
	m := v.m
	if dstNode < 0 || dstNode >= len(m.Nodes) {
		return flowwire.MigInfo{}, fmt.Errorf("flowcluster: destination node %d of %d", dstNode, len(m.Nodes))
	}
	src, ok := m.RangeOwner(rg)
	if !ok {
		return flowwire.MigInfo{}, fmt.Errorf("flowcluster: range %s spans multiple owners", rg)
	}
	if src == dstNode {
		return flowwire.MigInfo{}, fmt.Errorf("flowcluster: range %s already owned by node %d", rg, dstNode)
	}
	srcCl, err := v.client(src)
	if err != nil {
		return flowwire.MigInfo{}, err
	}
	dstCl, err := v.client(dstNode)
	if err != nil {
		return flowwire.MigInfo{}, err
	}
	if err := srcCl.MigrateStart(rg, m.Nodes[dstNode]); err != nil {
		return flowwire.MigInfo{}, fmt.Errorf("flowcluster: MIG_START on node %d: %w", src, err)
	}

	// Wait for the snapshot to finish streaming and the queue to go quiet.
	deadline := time.Now().Add(timeout)
	for {
		mi, err := srcCl.MigrateStatus()
		if err != nil {
			return mi, fmt.Errorf("flowcluster: MIG_STATUS on node %d: %w", src, err)
		}
		if mi.Err != "" {
			return mi, fmt.Errorf("flowcluster: migration failed on node %d: %s", src, mi.Err)
		}
		if mi.SnapshotDone && mi.Acked == mi.Enqueued {
			break
		}
		if time.Now().After(deadline) {
			return mi, fmt.Errorf("flowcluster: migration of %s not drained after %v (enqueued %d, acked %d)",
				rg, timeout, mi.Enqueued, mi.Acked)
		}
		time.Sleep(migPollInterval)
	}

	// Cutover: bump the epoch, push gaining node first (it must accept the
	// range before anyone routes there), then the losing node — whose reply
	// gates on the final queue drain and IS the zero-loss point — then the
	// rest of the cluster.
	nm := m.Clone()
	if err := nm.Assign(rg, uint32(dstNode)); err != nil {
		return flowwire.MigInfo{}, err
	}
	nm.Epoch++
	if err := dstCl.PushShardMap(nm); err != nil {
		return flowwire.MigInfo{}, fmt.Errorf("flowcluster: map push to gaining node %d: %w", dstNode, err)
	}
	if err := srcCl.PushShardMap(nm); err != nil {
		return flowwire.MigInfo{}, fmt.Errorf("flowcluster: cutover push to losing node %d: %w", src, err)
	}
	for i := range nm.Nodes {
		if i == src || i == dstNode {
			continue
		}
		cl, err := v.client(i)
		if err != nil {
			return flowwire.MigInfo{}, err
		}
		if err := cl.PushShardMap(nm); err != nil {
			return flowwire.MigInfo{}, fmt.Errorf("flowcluster: map push to node %d: %w", i, err)
		}
	}
	r.install(nm)

	mi, err := srcCl.MigrateStatus()
	if err != nil {
		return mi, err
	}
	if !mi.Done || mi.Enqueued != mi.Sent || mi.Sent != mi.Acked {
		return mi, fmt.Errorf("flowcluster: ledger unbalanced after cutover: enqueued %d, sent %d, acked %d",
			mi.Enqueued, mi.Sent, mi.Acked)
	}
	return mi, nil
}
