package hashfn

import (
	"testing"
	"testing/quick"
)

// otherSeed is any seed distinct from SeedPrimary.
const otherSeed Seed = 0xc2b2ae3d27d4eb4f

func TestHashDeterministic(t *testing.T) {
	key := []byte("10.0.0.1:443->10.0.0.2:8080/tcp")
	if Hash(SeedPrimary, key) != Hash(SeedPrimary, key) {
		t.Fatal("Hash is not deterministic")
	}
	if Hash(SeedPrimary, key) == Hash(otherSeed, key) {
		t.Fatal("different seeds produced the same hash")
	}
}

func TestHashLengthSensitivity(t *testing.T) {
	// A prefix must hash differently from its zero-extension: flow keys of
	// different header sizes must not collide trivially.
	a := []byte{1, 2, 3}
	b := []byte{1, 2, 3, 0}
	if Hash(SeedPrimary, a) == Hash(SeedPrimary, b) {
		t.Fatal("zero-extended key collided with its prefix")
	}
}

func TestHashEmptyKey(t *testing.T) {
	// Must not panic and must be seed-dependent.
	if Hash(SeedPrimary, nil) == Hash(otherSeed, nil) {
		t.Fatal("empty key hash is seed-independent")
	}
}

func TestHash64MatchesHashOfWord(t *testing.T) {
	check := func(w uint64) bool {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * i))
		}
		return Hash64(SeedPrimary, w) == Hash(SeedPrimary, buf[:])
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Hash64(SeedPrimary, 0x0123456789abcdef)
	totalFlips := 0
	for bit := 0; bit < 64; bit++ {
		h := Hash64(SeedPrimary, 0x0123456789abcdef^(1<<bit))
		diff := base ^ h
		flips := 0
		for diff != 0 {
			flips += int(diff & 1)
			diff >>= 1
		}
		totalFlips += flips
	}
	avg := float64(totalFlips) / 64
	if avg < 24 || avg > 40 {
		t.Fatalf("average bit flips per input-bit flip = %.1f, want ~32", avg)
	}
}

// bucketPair16 is the 16-bit derivation Buckets generalises (the former
// Signature and BucketPair), kept as the reference its width-16 output must
// equal bit for bit.
func bucketPair16(h, n uint64) (b1, b2 uint64, sig uint16) {
	sig = uint16(h >> 48)
	if sig == 0 {
		sig = 1
	}
	b1 = h & (n - 1)
	return b1, AltBucket(b1, sig, n), sig
}

func TestSignatureNeverZero(t *testing.T) {
	for w := uint8(8); w <= SigBits; w++ {
		check := func(h uint64) bool {
			_, _, sig := Buckets(h, 1<<12, w)
			_, _, ref := bucketPair16(h, 1<<12)
			return sig != 0 && sig>>w == 0 && (w != 16 || sig == ref)
		}
		if err := quick.Check(check, nil); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		// The reserved case maps to 1.
		if _, _, sig := Buckets(^uint64(0)>>w, 1<<12, w); sig != 1 {
			t.Fatalf("width %d: zero high bits gave signature %d, want 1", w, sig)
		}
		if _, _, sig := Buckets(^uint64(0), 1<<12, w); sig != 1<<w-1 {
			t.Fatalf("width %d: all-ones hash gave signature %#x, want %#x", w, sig, 1<<w-1)
		}
	}
}

func TestAltBucketInvolution(t *testing.T) {
	check := func(bucket uint64, sig uint16, sizeLog uint8) bool {
		n := uint64(1) << (1 + sizeLog%20) // 2 .. 2^20 buckets
		b := bucket % n
		if sig == 0 {
			sig = 1
		}
		alt := AltBucket(b, sig, n)
		if alt == b || alt >= n {
			return false
		}
		return AltBucket(alt, sig, n) == b
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketPairConsistentWithAltBucket(t *testing.T) {
	const n = 1 << 12
	for w := uint8(8); w <= SigBits; w++ {
		for i := uint64(0); i < 1000; i++ {
			h := Hash64(SeedPrimary, i)
			b1, b2, sig := Buckets(h, n, w)
			if b1 >= n || b2 >= n {
				t.Fatalf("width %d: bucket out of range: %d %d", w, b1, b2)
			}
			if b1 != h&(n-1) {
				t.Fatalf("width %d: b1 %d is not the hash's low bits", w, b1)
			}
			if AltBucket(b1, sig, n) != b2 {
				t.Fatalf("width %d: Buckets disagrees with AltBucket", w)
			}
			if AltBucket(b2, sig, n) != b1 {
				t.Fatalf("width %d: alt of alt is not the primary bucket", w)
			}
			if w == 16 {
				if r1, r2, rsig := bucketPair16(h, n); r1 != b1 || r2 != b2 || rsig != sig {
					t.Fatalf("width 16: Buckets = (%d, %d, %#x), 16-bit reference (%d, %d, %#x)", b1, b2, sig, r1, r2, rsig)
				}
			}
		}
	}
}

func TestBucketCount(t *testing.T) {
	for _, c := range []struct{ entries, want uint64 }{
		{1, 2}, {8, 2}, {16, 2}, {17, 4}, {20, 4}, {32, 4}, {33, 8},
		{130, 32}, {1024, 128}, {1030, 256}, {1 << 20, 1 << 17},
	} {
		if got := BucketCount(c.entries); got != c.want {
			t.Errorf("BucketCount(%d) = %d, want %d", c.entries, got, c.want)
		}
	}
	for e := uint64(1); e <= 4096; e++ {
		if bc := BucketCount(e); bc&(bc-1) != 0 || bc*EntriesPerBucket < e || bc > 2 && (bc/2)*EntriesPerBucket >= e {
			t.Fatalf("BucketCount(%d) = %d: not the least power of two >= 2 holding %d entries", e, bc, e)
		}
	}
}

func TestBucketDistributionUniform(t *testing.T) {
	const n = 256
	counts := make([]int, n)
	const draws = 256 * 1000
	for i := 0; i < draws; i++ {
		b1, _, _ := Buckets(Hash64(SeedPrimary, uint64(i)), n, SigBits)
		counts[b1]++
	}
	// Chi-squared-ish sanity: each bucket expects 1000 hits; allow ±20%.
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d got %d hits, want ~1000", b, c)
		}
	}
}

func TestShardIndexDistributionUniform(t *testing.T) {
	const shards = 16
	counts := make([]int, shards)
	const draws = 16 * 1000
	for i := 0; i < draws; i++ {
		s := ShardIndex(Hash64(SeedPrimary, uint64(i)), shards)
		if s >= shards {
			t.Fatalf("shard index %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("shard %d got %d draws, want ~1000", s, c)
		}
	}
}

func TestShardIndexIndependentOfBucketAndSignature(t *testing.T) {
	// Keys pinned to one shard must still spread over buckets and keep full
	// signature entropy: the three index fields read disjoint hash bits.
	const shards = 8
	const buckets = 256
	bucketCounts := make([]int, buckets)
	sigs := make(map[uint16]bool)
	drawn := 0
	for i := 0; drawn < 32*1000; i++ {
		h := Hash64(SeedPrimary, uint64(i))
		if ShardIndex(h, shards) != 3 {
			continue
		}
		drawn++
		b1, _, sig := Buckets(h, buckets, SigBits)
		bucketCounts[b1]++
		sigs[sig] = true
	}
	for b, c := range bucketCounts {
		if c < 60 || c > 190 { // expect 125 per bucket
			t.Fatalf("bucket %d got %d single-shard draws, want ~125", b, c)
		}
	}
	if len(sigs) < 20000 {
		t.Fatalf("single-shard keys produced only %d distinct signatures", len(sigs))
	}
}

func TestHashCollisionRateLow(t *testing.T) {
	seen := make(map[uint64]bool, 1<<16)
	collisions := 0
	for i := 0; i < 1<<16; i++ {
		h := Hash64(SeedPrimary, uint64(i))
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	if collisions != 0 {
		t.Fatalf("%d collisions in 64K sequential keys", collisions)
	}
}
