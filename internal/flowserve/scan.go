package flowserve

// ScanRange visits every resident key whose primary hash falls in [lo, hi)
// — hi == 0 meaning "to the end of the 64-bit hash space" — calling
// emit(key, value) for each. Each shard is scanned atomically under its
// writer mutex: concurrent lookups are unaffected (they are seqlock-based
// and never take the mutex on the optimistic path), while writers to the
// shard being scanned stall for that shard's scan only. The migration
// snapshot leans on this atomicity: any mutation racing the scan either
// lands before it (and is captured by the scan) or after it (and is
// captured by the double-write forwarder that was armed first).
//
// The key slice passed to emit is scratch reused across calls — the
// callback must copy it to retain it, and must not call back into the
// table (the shard mutex is held).
func (t *Table) ScanRange(lo, hi uint64, emit func(key []byte, value uint64)) {
	t.walkRange(lo, hi, func(_ *shard, _ uint64, _ uint32, key []byte, value uint64) {
		emit(key, value)
	})
}

// PurgeRange removes every resident key whose primary hash falls in
// [lo, hi) (hi == 0 meaning "to the end"), returning how many were
// removed. The losing node of a shard migration calls it after cutover:
// the surrendered range's keys now live on the gaining node, and the
// installed map guarantees no new ones arrive here. Each shard purges
// atomically under its writer mutex, bumping the seqlock per cleared
// entry so racing readers re-probe instead of observing recycled slots.
func (t *Table) PurgeRange(lo, hi uint64) (removed uint64) {
	t.walkRange(lo, hi, func(sh *shard, entIdx uint64, slot uint32, _ []byte, _ uint64) {
		sh.removeLocked(entIdx, slot)
		removed++
	})
	return removed
}

// walkRange is the one range walk under ScanRange and PurgeRange: shard by
// shard, holding the shard's writer mutex, it calls visit for every entry
// of the shard whose key's primary hash falls in [lo, hi) (hi == 0: to the
// end). visit may remove the entry it is given.
func (t *Table) walkRange(lo, hi uint64, visit func(sh *shard, entIdx uint64, slot uint32, key []byte, value uint64)) {
	var kw [maxKeyWords]uint64
	var kb [MaxKeyLen]byte
	for _, sh := range t.shards {
		sh.mu.Lock()
		for i := range sh.entries {
			ent := sh.entries[i].Load()
			if ent == 0 {
				continue
			}
			slot := ent >> sh.sigBits
			key, h, value := sh.residentKey(slot, t.keyLen, &kw, &kb)
			if h >= lo && (hi == 0 || h < hi) {
				visit(sh, uint64(i), slot, key, value)
			}
		}
		sh.mu.Unlock()
	}
}
