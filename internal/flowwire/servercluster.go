package flowwire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"halo/internal/stats"
)

// This file is the server half of cluster serving (DESIGN.md §13): the
// installed shard map, the per-request ownership gate, and the live
// migration engine that moves a hash range to another node with zero loss.
//
// Locking regime. The hot read path never locks: it loads the map pointer
// atomically, checks ownership per key, probes the table, and reloads the
// pointer — a changed pointer means a cutover may have purged under the
// probe, so the frames are gated again under the new map before anything is
// answered (serveLookups). Mutations take cl.mu — RLock in
// steady state (they only need the map to be stable), the full Lock while a
// migration is active, which serialises apply+enqueue so the migration
// queue's per-key order exactly mirrors the table's apply order. The
// cutover (handleMapUpdate) holds the full Lock across seal→drain→install:
// a bounded write pause (reads keep flowing off the old map) that buys the
// zero-loss guarantee — when the losing node starts redirecting, every
// double-written record has already been acknowledged by the gaining node.

// migQueueDepth bounds the migration queue; a full queue backpressures the
// producer (the snapshot scan or a double-writing mutation).
const migQueueDepth = 8192

// migBatchRecords caps how many queued records one MIG_APPLY frame carries.
const migBatchRecords = 256

type clusterCounters struct {
	wrongShard     atomic.Uint64 // frames redirected with WRONG_SHARD
	migsStarted    atomic.Uint64
	migsDone       atomic.Uint64
	migsFailed     atomic.Uint64
	migRecordsIn   atomic.Uint64 // records applied on the gaining side
	migConflictsIn atomic.Uint64
	// purgedKeys counts keys purged on either side of a migration: by the
	// losing node after surrendering a range, and by the gaining node when a
	// MIG_APPLY purge clears leftovers of an earlier attempt.
	purgedKeys atomic.Uint64
	// staleProbes counts keys probed under a map that a cutover replaced
	// before the answer went out; their frames were redirected, so the table's
	// lookup counter ran ahead of the lookups answered by exactly this much.
	staleProbes atomic.Uint64
}

// noNode is a cluster's selfID while its installed map does not name it.
const noNode = ^uint32(0)

// cluster is a server's cluster-mode state.
type cluster struct {
	self Endpoint
	// m is never nil: newCluster installs a validated map and
	// handleMapUpdate replaces it only with a parsed one.
	m      atomic.Pointer[ShardMap]
	selfID atomic.Uint32 // index of self in the installed map, or noNode

	// migActive tells mutators to take the full lock; it is only ever
	// flipped under mu, so holding RLock and observing false guarantees no
	// migration is armed for the duration.
	migActive atomic.Bool

	mu   sync.RWMutex
	mig  *migration // armed migration, guarded by mu
	last MigInfo    // ledger of the last finished migration, guarded by mu

	c clusterCounters
}

func newCluster(self Endpoint, nodes []Endpoint) (*cluster, error) {
	if self.IsZero() {
		return nil, fmt.Errorf("flowwire: cluster mode requires Config.Self")
	}
	selfID := noNode
	for i, ep := range nodes {
		if ep == self {
			selfID = uint32(i)
		}
	}
	if selfID == noNode {
		return nil, fmt.Errorf("flowwire: Config.Self %s not in cluster list %s", self, EndpointList(nodes))
	}
	m := UniformMap(nodes)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cl := &cluster{self: self}
	cl.m.Store(m)
	cl.selfID.Store(selfID)
	return cl, nil
}

func (cl *cluster) collectInto(snap *stats.Snapshot) {
	snap.Add("flowwire.cluster.wrong_shard", cl.c.wrongShard.Load())
	snap.Add("flowwire.cluster.migs_started", cl.c.migsStarted.Load())
	snap.Add("flowwire.cluster.migs_done", cl.c.migsDone.Load())
	snap.Add("flowwire.cluster.migs_failed", cl.c.migsFailed.Load())
	snap.Add("flowwire.cluster.mig_records_in", cl.c.migRecordsIn.Load())
	snap.Add("flowwire.cluster.mig_conflicts_in", cl.c.migConflictsIn.Load())
	snap.Add("flowwire.cluster.purged_keys", cl.c.purgedKeys.Load())
	snap.Add("flowwire.cluster.stale_probes", cl.c.staleProbes.Load())
	snap.Add("flowwire.cluster.epoch", cl.m.Load().Epoch)
}

// ownsAll reports whether this node owns every key under m.
func (cl *cluster) ownsAll(m *ShardMap, keys [][]byte) bool {
	selfID := cl.selfID.Load()
	for _, k := range keys {
		if uint32(m.Owner(KeyHash(k))) != selfID {
			return false
		}
	}
	return true
}

// migInfo snapshots the migration ledger: the armed migration's live
// counters, or the last finished one's.
func (cl *cluster) migInfo() MigInfo {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.mig != nil {
		return cl.mig.info(true, false)
	}
	return cl.last
}

// applyLocal runs one mutation against the table with no cluster checks.
func (s *Server) applyLocal(op Op, key []byte, value uint64) (Status, bool) {
	t := s.cfg.Table
	switch op {
	case OpInsert:
		return statusOf(t.Insert(key, value)), false
	case OpUpdate:
		return StatusOK, t.Update(key, value)
	default: // OpDelete
		return StatusOK, t.Delete(key)
	}
}

// applyMutation runs one mutation under the cluster regime: ownership gate,
// local apply, and — while a migration is armed and the key falls in the
// moving range — a double-write into the migration queue, atomically with
// the apply (the full lock). An unowned key returns StatusErrWrongShard
// with the map epoch for the redirect payload.
func (s *Server) applyMutation(op Op, key []byte, value uint64) (st Status, found bool, epoch uint64) {
	cl := s.cl
	if cl == nil {
		st, found = s.applyLocal(op, key, value)
		return st, found, 0
	}
	h := KeyHash(key)
	full := cl.migActive.Load()
	for {
		if full {
			cl.mu.Lock()
			break
		}
		cl.mu.RLock()
		if !cl.migActive.Load() {
			break
		}
		// A migration armed between the check and the RLock: upgrade.
		cl.mu.RUnlock()
		full = true
	}
	m := cl.m.Load()
	if uint32(m.Owner(h)) != cl.selfID.Load() {
		epoch = m.Epoch
		if full {
			cl.mu.Unlock()
		} else {
			cl.mu.RUnlock()
		}
		cl.c.wrongShard.Add(1)
		return StatusErrWrongShard, false, epoch
	}
	st, found = s.applyLocal(op, key, value)
	if full {
		if mig := cl.mig; mig != nil && !mig.aborted.Load() && mig.rg.Contains(h) {
			// Forward only effective mutations, in apply order (we hold the
			// full lock, so enqueue order IS apply order).
			var kind MigKind
			switch {
			case op == OpInsert && st == StatusOK, op == OpUpdate && found:
				kind = MigUpsert
			case op == OpDelete && found:
				kind = MigDelete
			}
			if kind != 0 {
				mig.queue <- MigRecord{Kind: kind, Value: value, Key: append([]byte(nil), key...)}
				mig.forwarded.Add(1)
				mig.enqueued.Add(1)
			}
		}
		cl.mu.Unlock()
	} else {
		cl.mu.RUnlock()
	}
	return st, found, 0
}

// rangeOwnedBy reports whether every hash in rg is owned by node id under m.
func rangeOwnedBy(m *ShardMap, rg Range, id uint32) bool {
	if id == noNode {
		return false
	}
	own, ok := m.RangeOwner(rg)
	return ok && uint32(own) == id
}

// migration is one armed range handoff on the losing node: a FIFO queue fed
// by the snapshot scan and the double-writing mutators, drained by a single
// sender over one connection to the gaining node — one queue, one sender,
// one connection, so per-key record order is preserved end to end.
type migration struct {
	rg  Range
	dst Endpoint
	cl  *Client // Conns:1 to the gaining node

	queue      chan MigRecord
	scanDone   chan struct{}
	senderDone chan struct{}

	aborted atomic.Bool
	errv    atomic.Value // string: first sender/apply failure

	snapshotted atomic.Uint64
	forwarded   atomic.Uint64
	enqueued    atomic.Uint64
	sent        atomic.Uint64
	acked       atomic.Uint64
	conflicts   atomic.Uint64
}

func (mig *migration) info(active, done bool) MigInfo {
	mi := MigInfo{
		Active:      active,
		Done:        done,
		RangeLo:     mig.rg.Lo,
		RangeHi:     mig.rg.Hi,
		Snapshotted: mig.snapshotted.Load(),
		Forwarded:   mig.forwarded.Load(),
		Enqueued:    mig.enqueued.Load(),
		Sent:        mig.sent.Load(),
		Acked:       mig.acked.Load(),
		Conflicts:   mig.conflicts.Load(),
	}
	select {
	case <-mig.scanDone:
		mi.SnapshotDone = true
	default:
	}
	if e, ok := mig.errv.Load().(string); ok {
		mi.Err = e
	}
	return mi
}

// handleMigStart arms a migration of rg to dst on this (losing) node.
func (s *Server) handleMigStart(rg Range, dst Endpoint) Status {
	cl := s.cl
	if cl == nil || rg.Empty() {
		return StatusErrCluster
	}
	if !rangeOwnedBy(cl.m.Load(), rg, cl.selfID.Load()) {
		return StatusErrCluster
	}
	mcl, err := DialEndpoint(dst, Options{Conns: 1})
	if err != nil {
		return StatusErrCluster
	}
	mig := &migration{
		rg:         rg,
		dst:        dst,
		cl:         mcl,
		queue:      make(chan MigRecord, migQueueDepth),
		scanDone:   make(chan struct{}),
		senderDone: make(chan struct{}),
	}
	cl.mu.Lock()
	if cl.mig != nil {
		cl.mu.Unlock()
		mcl.Close()
		return StatusErrCluster
	}
	// The purge record leads the stream: it is enqueued before the scan
	// starts and before any mutator can double-write, so the gaining node
	// clears leftovers of any earlier failed attempt first.
	var hi [8]byte
	binary.LittleEndian.PutUint64(hi[:], rg.Hi)
	mig.queue <- MigRecord{Kind: MigPurge, Value: rg.Lo, Key: hi[:]}
	mig.enqueued.Add(1)
	cl.mig = mig
	cl.migActive.Store(true)
	cl.mu.Unlock()
	cl.c.migsStarted.Add(1)
	go mig.runSnapshot(s)
	go mig.runSender(cl)
	return StatusOK
}

// runSnapshot streams the range out of the table into the queue. It runs
// WITHOUT the cluster lock: a mutation racing the scan either lands before
// a shard's scan (captured by the scan, under the shard lock) or after it
// (captured by the double-write forwarder, which was armed first) — both
// orders leave the last queued record carrying the key's final value.
func (mig *migration) runSnapshot(s *Server) {
	defer close(mig.scanDone)
	s.cfg.Table.ScanRange(mig.rg.Lo, mig.rg.Hi, func(key []byte, value uint64) {
		if mig.aborted.Load() {
			return
		}
		rec := MigRecord{Kind: MigSnapshot, Value: value, Key: append([]byte(nil), key...)}
		mig.snapshotted.Add(1)
		mig.enqueued.Add(1)
		mig.queue <- rec
	})
}

// runSender drains the queue into MIG_APPLY batches on the single
// connection to the gaining node. On a send/apply failure it flips to
// discard mode (so producers never block on a dead migration) and a cleanup
// goroutine disarms the migration once the scan has finished.
func (mig *migration) runSender(cl *cluster) {
	defer close(mig.senderDone)
	batch := make([]MigRecord, 0, migBatchRecords)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		n := uint64(len(batch))
		if !mig.aborted.Load() {
			mig.sent.Add(n)
			processed, conflicts, err := mig.cl.MigApply(batch)
			if err == nil && uint64(processed) != n {
				err = fmt.Errorf("flowwire: MIG_APPLY processed %d of %d records", processed, n)
			}
			if err != nil {
				mig.fail(cl, err)
			} else {
				mig.acked.Add(n)
				mig.conflicts.Add(uint64(conflicts))
			}
		}
		batch = batch[:0]
	}
	for {
		rec, ok := <-mig.queue
		if !ok {
			flush()
			return
		}
		batch = append(batch, rec)
	fill:
		for len(batch) < migBatchRecords {
			select {
			case r2, ok2 := <-mig.queue:
				if !ok2 {
					flush()
					return
				}
				batch = append(batch, r2)
			default:
				break fill
			}
		}
		flush()
	}
}

// fail flips the migration into aborted/discard mode and spawns the
// disarm: wait for the scan to finish (it stops enqueueing once it sees
// aborted), clear the armed migration under the lock — after which no
// mutator can enqueue — and close the queue so the sender drains out.
func (mig *migration) fail(cl *cluster, err error) {
	if mig.aborted.Swap(true) {
		return
	}
	mig.errv.Store(err.Error())
	go func() {
		<-mig.scanDone
		cl.mu.Lock()
		if cl.mig == mig {
			cl.mig = nil
			cl.migActive.Store(false)
			cl.last = mig.info(false, false)
			cl.c.migsFailed.Add(1)
			close(mig.queue)
		}
		cl.mu.Unlock()
		mig.cl.Close()
	}()
}

// handleMapUpdate installs a pushed shard map. When the new map takes the
// armed migration's range away from this node, the install IS the cutover:
// seal the queue, drain it into the gaining node, install the map, purge
// the surrendered range — all before replying. The reply is the zero-loss
// point the coordinator waits on.
func (s *Server) handleMapUpdate(payload []byte) Status {
	m, err := ParseShardMap(payload)
	if err != nil {
		return StatusErrMalformed
	}
	cl := s.cl
	if cl == nil {
		return StatusErrCluster
	}
	cur := cl.m.Load()
	if m.Epoch < cur.Epoch {
		return StatusErrCluster
	}
	if m.Epoch == cur.Epoch {
		return StatusOK // idempotent re-push
	}
	newID := noNode
	for i, ep := range m.Nodes {
		if ep == cl.self {
			newID = uint32(i)
		}
	}

	cl.mu.Lock()
	mig := cl.mig
	if mig == nil || rangeOwnedBy(m, mig.rg, newID) {
		// No cutover: a plain map install (e.g. this is the gaining node, or
		// a topology change elsewhere).
		cl.m.Store(m)
		cl.selfID.Store(newID)
		cl.mu.Unlock()
		return StatusOK
	}
	cl.mu.Unlock()

	// Cutover. The snapshot must be complete before sealing — the
	// coordinator polls MIG_STATUS for SnapshotDone before pushing, so this
	// wait is normally instant.
	<-mig.scanDone

	cl.mu.Lock()
	if cl.mig != mig {
		// The migration failed and disarmed itself meanwhile; without its
		// records on the gaining node the map must not be installed.
		cl.mu.Unlock()
		return StatusErrCluster
	}
	cl.mig = nil
	cl.migActive.Store(false)
	close(mig.queue)
	// Bounded write pause: mutators block on cl.mu while the sender drains
	// the sealed queue (reads keep serving off the old map). When the
	// sender is done, every double-written record is acked remotely.
	<-mig.senderDone
	if mig.aborted.Load() {
		cl.last = mig.info(false, false)
		cl.c.migsFailed.Add(1)
		cl.mu.Unlock()
		mig.cl.Close()
		return StatusErrCluster
	}
	cl.m.Store(m)
	cl.selfID.Store(newID)
	cl.last = mig.info(false, true)
	cl.c.migsDone.Add(1)
	cl.mu.Unlock()
	mig.cl.Close()
	cl.c.purgedKeys.Add(s.cfg.Table.PurgeRange(mig.rg.Lo, mig.rg.Hi))
	return StatusOK
}

// applyMigRecords applies one MIG_APPLY batch on the gaining node, which
// must be a cluster node (serveOne refuses the frame otherwise). Records
// bypass the ownership gate: during the handoff this node accepts the
// moving range's records before its clients may route here.
func (s *Server) applyMigRecords(recs []MigRecord) (processed, conflicts uint32, st Status) {
	t := s.cfg.Table
	for _, r := range recs {
		switch r.Kind {
		case MigPurge:
			if len(r.Key) != 8 {
				return processed, conflicts, StatusErrMalformed
			}
			// Leftovers of an earlier, failed attempt at this range.
			s.cl.c.purgedKeys.Add(t.PurgeRange(r.Value, binary.LittleEndian.Uint64(r.Key)))
		case MigSnapshot, MigUpsert:
			if t.Update(r.Key, r.Value) {
				if r.Kind == MigSnapshot {
					conflicts++
				}
			} else if err := t.Insert(r.Key, r.Value); err != nil {
				return processed, conflicts, statusOf(err)
			}
		case MigDelete:
			if !t.Delete(r.Key) {
				conflicts++
			}
		}
		processed++
	}
	s.cl.c.migRecordsIn.Add(uint64(processed))
	s.cl.c.migConflictsIn.Add(uint64(conflicts))
	return processed, conflicts, StatusOK
}
