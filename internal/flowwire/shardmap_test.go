package flowwire

import (
	"math/rand"
	"testing"
)

func testNodes(n int) []Endpoint {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{Transport: TransportTCP, Addr: "127.0.0.1:" + string(rune('0'+i)) + "000"}
	}
	return eps
}

func TestUniformMap(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7} {
		m := UniformMap(testNodes(n))
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m.Epoch != 1 || len(m.Splits) != n {
			t.Fatalf("n=%d: epoch %d, %d splits", n, m.Epoch, len(m.Splits))
		}
		// Every node owns a range; boundary hashes resolve to exactly one
		// owner; 0 and ^0 are covered.
		owned := make(map[int]bool)
		for _, h := range []uint64{0, 1, ^uint64(0), ^uint64(0) / 2} {
			owned[m.Owner(h)] = true
		}
		for _, sp := range m.Splits {
			owned[m.Owner(sp.Start)] = true
			if int(sp.Node) != m.Owner(sp.Start) {
				t.Fatalf("n=%d: split start %#x owned by %d, split says %d", n, sp.Start, m.Owner(sp.Start), sp.Node)
			}
		}
		if len(owned) != n {
			t.Fatalf("n=%d: only %d nodes own boundary hashes", n, len(owned))
		}
	}
}

func TestRangeContains(t *testing.T) {
	full := Range{0, 0}
	if !full.Contains(0) || !full.Contains(^uint64(0)) || full.Empty() {
		t.Fatal("full range broken")
	}
	r := Range{100, 200}
	if r.Contains(99) || !r.Contains(100) || !r.Contains(199) || r.Contains(200) {
		t.Fatal("half-open bounds broken")
	}
	tail := Range{1 << 63, 0}
	if tail.Contains(1<<63-1) || !tail.Contains(^uint64(0)) {
		t.Fatal("to-end range broken")
	}
	if !(Range{5, 5}).Empty() || !(Range{6, 5}).Empty() {
		t.Fatal("Empty broken")
	}
}

func TestAssignAndRangeOwner(t *testing.T) {
	m := UniformMap(testNodes(3))
	// Node 1's whole range moves to node 2.
	lo, hi := m.Splits[1].Start, m.Splits[2].Start
	if err := m.Assign(Range{lo, hi}, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if own := m.Owner(lo); own != 2 {
		t.Fatalf("owner after assign = %d", own)
	}
	if own, ok := m.RangeOwner(Range{lo, 0}); !ok || own != 2 {
		t.Fatalf("RangeOwner tail = %d, %v (want 2, true)", own, ok)
	}
	// Adjacent same-owner splits were compressed: node 2 now owns one
	// contiguous tail range, so the map is two splits.
	if len(m.Splits) != 2 {
		t.Fatalf("splits after compression = %+v", m.Splits)
	}
	// A range spanning both owners has no single owner.
	if _, ok := m.RangeOwner(Range{0, 0}); ok {
		t.Fatal("full range should span owners")
	}
	if _, ok := m.RangeOwner(Range{5, 5}); ok {
		t.Fatal("empty range should have no owner")
	}
}

func TestAssignRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := UniformMap(testNodes(4))
	// Model: ownership probed at pseudo-random hashes after each assign
	// must match a brute-force record of every assignment.
	type move struct {
		rg   Range
		node uint32
	}
	var moves []move
	ownerAt := func(h uint64) uint32 {
		for i := len(moves) - 1; i >= 0; i-- {
			if moves[i].rg.Contains(h) {
				return moves[i].node
			}
		}
		base := UniformMap(testNodes(4))
		return uint32(base.Owner(h))
	}
	for step := 0; step < 200; step++ {
		lo := rng.Uint64()
		var hi uint64
		if rng.Intn(4) > 0 { // 1-in-4 moves run to the end of the space
			hi = lo + 1 + rng.Uint64()%(1<<40)
			if hi < lo { // wrapped: clamp to end
				hi = 0
			}
		}
		node := uint32(rng.Intn(4))
		if err := m.Assign(Range{lo, hi}, node); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		moves = append(moves, move{Range{lo, hi}, node})
		for probe := 0; probe < 20; probe++ {
			h := rng.Uint64()
			if got, want := uint32(m.Owner(h)), ownerAt(h); got != want {
				t.Fatalf("step %d: owner(%#x) = %d, want %d", step, h, got, want)
			}
		}
		// Boundary probes: split starts and their predecessors.
		for _, sp := range m.Splits {
			if got, want := uint32(m.Owner(sp.Start)), ownerAt(sp.Start); got != want {
				t.Fatalf("step %d: owner(split %#x) = %d, want %d", step, sp.Start, got, want)
			}
			if sp.Start > 0 {
				if got, want := uint32(m.Owner(sp.Start-1)), ownerAt(sp.Start-1); got != want {
					t.Fatalf("step %d: owner(%#x) = %d, want %d", step, sp.Start-1, got, want)
				}
			}
		}
	}
}

func TestShardMapCodecRoundTrip(t *testing.T) {
	m := &ShardMap{
		Epoch: 42,
		Nodes: []Endpoint{
			{TransportTCP, "10.0.0.1:7070"},
			{TransportUnix, "/run/flow.sock"},
			{TransportShm, "/dev/shm/flow.ring"},
		},
		Splits: []Split{{0, 2}, {1 << 20, 0}, {1 << 62, 1}},
	}
	got, err := ParseShardMap(AppendShardMap(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || len(got.Nodes) != len(m.Nodes) || len(got.Splits) != len(m.Splits) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range m.Nodes {
		if got.Nodes[i] != m.Nodes[i] {
			t.Fatalf("node %d = %+v, want %+v", i, got.Nodes[i], m.Nodes[i])
		}
	}
	for i := range m.Splits {
		if got.Splits[i] != m.Splits[i] {
			t.Fatalf("split %d = %+v, want %+v", i, got.Splits[i], m.Splits[i])
		}
	}
	// Truncations and corruptions fail to parse rather than panic.
	enc := AppendShardMap(nil, m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := ParseShardMap(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d parsed", cut)
		}
	}
}

func TestMigRecordCodecRoundTrip(t *testing.T) {
	recs := []MigRecord{
		{Kind: MigPurge, Value: 100, Key: []byte{200, 0, 0, 0, 0, 0, 0, 0}},
		{Kind: MigSnapshot, Value: 7, Key: []byte("snapshot-key-0000000")},
		{Kind: MigUpsert, Value: 8, Key: []byte("upsert-key-000000000")},
		{Kind: MigDelete, Value: 0, Key: []byte("delete-key-000000000")},
	}
	got, err := parseMigRecords(appendMigRecords(nil, recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Value != recs[i].Value || string(got[i].Key) != string(recs[i].Key) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// A bad kind is rejected: an unassigned one, and 3, the retired UPDATE
	// kind that MigUpsert replaced.
	for _, kind := range []MigKind{9, 3} {
		bad := appendMigRecords(nil, []MigRecord{{Kind: kind, Value: 1, Key: []byte("x")}})
		if _, err := parseMigRecords(bad, nil); err == nil {
			t.Fatalf("kind %d parsed", kind)
		}
	}
}

func TestMigStartCodecRoundTrip(t *testing.T) {
	rg := Range{Lo: 1 << 30, Hi: 1 << 40}
	ep := Endpoint{TransportUnix, "/run/dst.sock"}
	gotRg, gotEp, err := parseMigStartReq(appendMigStartReq(nil, rg, ep))
	if err != nil || gotRg != rg || gotEp != ep {
		t.Fatalf("round trip = %+v, %+v, %v", gotRg, gotEp, err)
	}
}
