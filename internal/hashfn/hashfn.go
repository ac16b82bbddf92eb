// Package hashfn implements the hash algorithms and the cuckoo geometry
// shared by the simulated cuckoo table, the HALO accelerator's hash unit, the
// flowserve shards and the linear-counting flow register.
//
// The HALO hash unit (paper Fig. 6) is built from multipliers, shifters and
// XOR gates; the functions here mirror that structure: a multiply–shift–xor
// mixing chain over the key words, parameterised by a seed so that two
// independent functions drive the two cuckoo buckets.
//
// The geometry (geometry.go) is decided here once, because HALO works only if
// the accelerator finds a key exactly where software put it (paper §2.2, Fig.
// 2b): the bucket width and displacement bound, the bucket count for a
// capacity, a key's signature and candidate bucket pair, and the BFS search
// for a chain of cuckoo moves.
package hashfn

import "encoding/binary"

// Seed selects one member of the hash family. Tables and indexes hash with
// SeedPrimary; SeedFlowReg is a second, independent member.
type Seed uint64

// Canonical seeds used across the repository. Any distinct values work; these
// are fixed so simulations are reproducible.
const (
	SeedPrimary Seed = 0x9e3779b97f4a7c15
	SeedFlowReg Seed = 0x165667b19e3779f9
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
