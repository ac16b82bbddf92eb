package hashfn

import "slices"

// EntriesPerBucket is the bucket width: eight entries, DPDK's default. A
// simulated bucket of 8-byte entries fills one 64 B line; a flowserve bucket
// of 4-byte entries fills half of one.
const EntriesPerBucket = 8

// MaxDisplacements bounds the BFS displacement search: it gives up after
// visiting MaxDisplacements buckets' worth of entries and the table counts
// as full for that key.
const MaxDisplacements = 128

// SigBits is the widest signature, the one the simulated table and the
// accelerator store; a flowserve shard past 1<<16 slots narrows it.
const SigBits = 16

// BucketCount is the bucket count of a table with room for entries keys: the
// entries divided by the bucket width rounded up, then rounded up to a power
// of two, at least 2. Rounding the division down would leave a 20-entry table
// with 16 addressable entries.
func BucketCount(entries uint64) uint64 {
	want := (entries + EntriesPerBucket - 1) / EntriesPerBucket
	bc := uint64(2)
	for bc < want {
		bc <<= 1
	}
	return bc
}

// Buckets returns a key's two candidate buckets and its signature, from its
// primary hash h, in a table of bucketCount buckets (a power of two) whose
// entries hold sigBits-bit signatures (8..16). The signature is the top
// sigBits bits of h, zero mapped to one (zero marks an empty entry). b1 is
// the low bits of h and b2 is derived from b1 and the signature the way
// DPDK's rte_hash does, so an entry alone names its other bucket, as a
// displacement needs.
func Buckets(h, bucketCount uint64, sigBits uint8) (b1, b2 uint64, sig uint16) {
	if sig = uint16(h >> (64 - sigBits)); sig == 0 {
		sig = 1
	}
	b1 = h & (bucketCount - 1)
	return b1, AltBucket(b1, sig, bucketCount), sig
}

// AltBucket computes the alternative bucket for an entry given its current
// bucket and signature. The XOR displacement depends only on the signature,
// which makes AltBucket an involution: AltBucket(AltBucket(b, s), s) == b.
// That property is what lets a cuckoo move push an entry to its alternative
// bucket knowing only the bucket contents, and lets it move back later.
func AltBucket(bucket uint64, sig uint16, bucketCount uint64) uint64 {
	// OR with 1 so the displacement is never zero (alt != bucket) while
	// remaining a fixed XOR mask, preserving the involution.
	return bucket ^ (mix(0x5bd1e995, uint64(sig))&(bucketCount-1) | 1)
}

// Move is one step of a displacement path: the entry at (Bucket, Entry)
// moves to its alternative bucket.
type Move struct {
	Bucket uint64
	Entry  int
}

// searchNode is a Move the search reached, and the node whose move it makes
// room for (-1 for a candidate bucket's entry).
type searchNode struct {
	Move
	parent int
}

// frontierItem is one BFS queue entry: a bucket and the node that reached it.
type frontierItem struct {
	bucket uint64
	node   int
}

// Displacer is the BFS displacement search and its scratch, reused across
// searches so that a warm one allocates nothing. The zero value is ready;
// a Displacer is for one writer at a time.
type Displacer struct {
	nodes   []searchNode
	queue   []frontierItem
	path    []Move
	visited map[uint64]bool
}

// Path BFS-searches for a chain of moves that frees an entry in b1 or b2 of a
// table of bucketCount buckets. sigs returns a bucket's signatures in entry
// order, zero for an empty entry. The chain comes root first: Path[0] moves
// an entry out of b1 or b2, each later move makes room for the one before,
// and the last move's alternative bucket has a free entry, so applying the
// moves last to first never leaves an entry unreachable. Path returns nil
// when the search finds no chain within MaxDisplacements buckets; the
// result aliases d's scratch and is valid until the next Path.
func (d *Displacer) Path(b1, b2, bucketCount uint64, sigs func(bucket uint64) [EntriesPerBucket]uint16) []Move {
	nodes := d.nodes[:0]
	queue := append(d.queue[:0], frontierItem{b1, -1}, frontierItem{b2, -1})
	if d.visited == nil {
		d.visited = make(map[uint64]bool)
	}
	visited := d.visited
	clear(visited)
	visited[b1], visited[b2] = true, true
	defer func() { d.nodes, d.queue = nodes[:0], queue[:0] }()

	for head := 0; head < len(queue) && len(nodes) < MaxDisplacements*EntriesPerBucket; head++ {
		item := queue[head]
		for e, sig := range sigs(item.bucket) {
			if sig == 0 {
				continue
			}
			alt := AltBucket(item.bucket, sig, bucketCount)
			nodes = append(nodes, searchNode{Move{item.bucket, e}, item.node})
			nodeIdx := len(nodes) - 1
			if altSigs := sigs(alt); slices.Contains(altSigs[:], 0) {
				// Collect leaf→root, then reverse to root→leaf order.
				path := d.path[:0]
				for i := nodeIdx; i >= 0; i = nodes[i].parent {
					path = append(path, nodes[i].Move)
				}
				slices.Reverse(path)
				d.path = path
				return path
			}
			if !visited[alt] {
				visited[alt] = true
				queue = append(queue, frontierItem{alt, nodeIdx})
			}
		}
	}
	return nil
}
