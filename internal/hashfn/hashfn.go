// Package hashfn implements the hash algorithms shared by the software
// cuckoo hash table, the HALO accelerator's hash unit, and the linear-counting
// flow register.
//
// The HALO hash unit (paper Fig. 6) is built from multipliers, shifters and
// XOR gates; the functions here mirror that structure: a multiply–shift–xor
// mixing chain over the key words, parameterised by a seed so that two
// independent functions drive the two cuckoo buckets.
package hashfn

import "encoding/binary"

// Seed selects one member of the hash family. The cuckoo table uses two
// distinct seeds; the flow register uses a third.
type Seed uint64

// Canonical seeds used across the repository. Any distinct values work; these
// are fixed so simulations are reproducible.
const (
	SeedPrimary   Seed = 0x9e3779b97f4a7c15
	SeedSecondary Seed = 0xc2b2ae3d27d4eb4f
	SeedFlowReg   Seed = 0x165667b19e3779f9
)

const (
	mulA = 0xff51afd7ed558ccd
	mulB = 0xc4ceb9fe1a85ec53
)

// mix is one round of the hash unit: multiply, shift, xor (paper Fig. 6
// shows exactly this gate mix: MUL, <<, XOR, +).
func mix(h, word uint64) uint64 {
	h ^= word * mulA
	h = (h << 31) | (h >> 33)
	h *= mulB
	h ^= h >> 29
	return h
}

// Hash64 hashes an 8-byte word with the given seed.
func Hash64(seed Seed, word uint64) uint64 {
	h := mix(uint64(seed), word)
	return finalize(h, 8)
}

// Hash hashes an arbitrary key with the given seed. Keys shorter than a
// multiple of 8 bytes are padded by processing the zero-extended tail word;
// length is folded in so prefixes hash differently from their extensions.
func Hash(seed Seed, key []byte) uint64 {
	h := uint64(seed)
	n := uint64(len(key))
	for len(key) >= 8 {
		h = mix(h, binary.LittleEndian.Uint64(key))
		key = key[8:]
	}
	if len(key) > 0 {
		var tail [8]byte
		copy(tail[:], key)
		h = mix(h, binary.LittleEndian.Uint64(tail[:]))
	}
	return finalize(h, n)
}

func finalize(h, extra uint64) uint64 {
	h ^= extra
	h ^= h >> 33
	h *= mulA
	h ^= h >> 33
	h *= mulB
	h ^= h >> 33
	return h
}

// Signature derives the 16-bit bucket-entry signature stored next to each
// key-value pointer (paper Fig. 2b). It must be derived from the primary
// hash so the accelerator can compare signatures without re-reading keys.
func Signature(primaryHash uint64) uint16 {
	sig := uint16(primaryHash >> 48)
	if sig == 0 {
		// Zero is reserved to mean "empty entry" in bucket storage.
		sig = 1
	}
	return sig
}

// BucketPair returns the two candidate bucket indexes for a key in a table
// with bucketCount buckets (bucketCount must be a power of two). The
// secondary index is derived from the primary hash and the signature the way
// DPDK's rte_hash does, so the alternative bucket is computable from bucket
// contents alone during cuckoo displacement.
func BucketPair(primaryHash uint64, bucketCount uint64) (b1, b2 uint64) {
	mask := bucketCount - 1
	b1 = primaryHash & mask
	alt := AltBucket(b1, Signature(primaryHash), bucketCount)
	return b1, alt
}

// ShardIndex derives a shard index in [0, shards) from the primary hash for
// tables partitioned across independent sub-tables (HALO places one
// accelerator per LLC slice; the flowserve runtime places one seqlock-guarded
// sub-table per shard). shards must be a power of two, at most 1<<24. The
// index comes from bits 24..47 of the hash — disjoint from both the bucket
// index (low bits; a flowserve shard has at most 2^21 buckets) and the
// signature (top 16 bits, fewer in a large flowserve shard) — so sharding
// skews neither per-shard bucket occupancy nor signature entropy within a
// shard. flowserve's TestBitBudgetAtMaxPerShard checks both bounds.
func ShardIndex(primaryHash uint64, shards uint64) uint64 {
	return (primaryHash >> 24) & (shards - 1)
}

// AltBucket computes the alternative bucket for an entry given its current
// bucket and signature. The XOR displacement depends only on the signature,
// which makes AltBucket an involution: AltBucket(AltBucket(b, s), s) == b.
// That property is what lets a cuckoo move push an entry to its alternative
// bucket knowing only the bucket contents, and lets it move back later.
func AltBucket(bucket uint64, sig uint16, bucketCount uint64) uint64 {
	mask := bucketCount - 1
	h := mix(0x5bd1e995, uint64(sig))
	// OR with 1 so the displacement is never zero (alt != bucket) while
	// remaining a fixed XOR mask, preserving the involution.
	disp := (h & mask) | 1
	return bucket ^ disp
}
