package flowwire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"halo/internal/hashfn"
)

// The shard map is the cluster's routing table: the full 64-bit primary key
// hash space is split into contiguous half-open ranges, each owned by one
// node. The map is versioned by a monotonically increasing epoch; installing
// a map with a higher epoch is the migration cutover. Every node holds a
// copy and rejects keys it does not own with a WRONG_SHARD redirect carrying
// its epoch, so a router with a stale map self-corrects without any central
// lookup on the hot path (the HALO analogue: each lookup steered to the
// slice that owns the flow, DESIGN.md §13).

// Split marks the start of one owned range: the node owns hashes in
// [Start, nextSplit.Start), the last split running to the end of the hash
// space. Splits[0].Start is always 0, so every hash has exactly one owner.
type Split struct {
	Start uint64
	Node  uint32 // index into ShardMap.Nodes
}

// ShardMap is a versioned hash-range→node routing table.
type ShardMap struct {
	Epoch  uint64
	Nodes  []Endpoint
	Splits []Split
}

// Range is a half-open hash range [Lo, Hi); Hi == 0 means "to the end of
// the 64-bit hash space" (a full-space range is {0, 0}).
type Range struct {
	Lo, Hi uint64
}

// Contains reports whether h falls inside the range.
func (r Range) Contains(h uint64) bool {
	return h >= r.Lo && (r.Hi == 0 || h < r.Hi)
}

// Empty reports a range containing no hashes.
func (r Range) Empty() bool { return r.Hi != 0 && r.Hi <= r.Lo }

func (r Range) String() string {
	if r.Hi == 0 {
		return fmt.Sprintf("[%#x,end)", r.Lo)
	}
	return fmt.Sprintf("[%#x,%#x)", r.Lo, r.Hi)
}

// KeyHash is the routing hash: the primary-seed 64-bit hash of the key, the
// same value flowserve's shard selection is derived from. Router and server
// must agree on it exactly — ownership checks on both sides call this.
func KeyHash(key []byte) uint64 {
	return hashfn.Hash(hashfn.SeedPrimary, key)
}

// UniformMap builds an epoch-1 map splitting the hash space evenly across
// the nodes — the bootstrap map a fresh cluster starts from.
func UniformMap(nodes []Endpoint) *ShardMap {
	m := &ShardMap{Epoch: 1, Nodes: nodes}
	n := uint64(len(nodes))
	width := ^uint64(0)/n + 1 // 2^64 / n rounded up; last range absorbs the remainder
	for i := uint64(0); i < n; i++ {
		m.Splits = append(m.Splits, Split{Start: i * width, Node: uint32(i)})
	}
	return m
}

// Validate checks map well-formedness: at least one node, splits sorted and
// strictly increasing starting at 0, every split owned by a listed node.
func (m *ShardMap) Validate() error {
	if m == nil {
		return fmt.Errorf("flowwire: nil shard map")
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("flowwire: shard map has no nodes")
	}
	if len(m.Splits) == 0 || m.Splits[0].Start != 0 {
		return fmt.Errorf("flowwire: shard map must start a split at 0")
	}
	for i, sp := range m.Splits {
		if i > 0 && sp.Start <= m.Splits[i-1].Start {
			return fmt.Errorf("flowwire: shard map splits not strictly increasing at %d", i)
		}
		if int(sp.Node) >= len(m.Nodes) {
			return fmt.Errorf("flowwire: split %d names node %d of %d", i, sp.Node, len(m.Nodes))
		}
	}
	return nil
}

// Owner returns the index of the node owning hash h.
func (m *ShardMap) Owner(h uint64) int {
	// First split with Start > h; the owner is the one before it.
	i := sort.Search(len(m.Splits), func(i int) bool { return m.Splits[i].Start > h })
	return int(m.Splits[i-1].Node)
}

// OwnerOfKey returns the index of the node owning key's hash.
func (m *ShardMap) OwnerOfKey(key []byte) int { return m.Owner(KeyHash(key)) }

// RangeOwner returns the single node owning every hash of rg, or ok=false
// when rg is empty or spans more than one owner.
func (m *ShardMap) RangeOwner(rg Range) (int, bool) {
	if rg.Empty() {
		return 0, false
	}
	own := m.Owner(rg.Lo)
	for _, sp := range m.Splits {
		if sp.Start > rg.Lo && (rg.Hi == 0 || sp.Start < rg.Hi) && int(sp.Node) != own {
			return 0, false
		}
	}
	return own, true
}

// Clone deep-copies the map (the coordinator mutates a clone, then installs).
func (m *ShardMap) Clone() *ShardMap {
	c := &ShardMap{Epoch: m.Epoch}
	c.Nodes = append([]Endpoint(nil), m.Nodes...)
	c.Splits = append([]Split(nil), m.Splits...)
	return c
}

// Assign rewrites the map so node owns rg, preserving ownership everywhere
// else and compressing adjacent same-owner splits. The epoch is NOT bumped
// here — the coordinator bumps it once per cutover.
func (m *ShardMap) Assign(rg Range, node uint32) error {
	if int(node) >= len(m.Nodes) {
		return fmt.Errorf("flowwire: assign to node %d of %d", node, len(m.Nodes))
	}
	if rg.Empty() {
		return fmt.Errorf("flowwire: assign of empty range %s", rg)
	}
	// Collect all boundaries (old split starts + the range's edges), then
	// re-derive the owner at each and compress.
	bounds := make([]uint64, 0, len(m.Splits)+2)
	for _, sp := range m.Splits {
		bounds = append(bounds, sp.Start)
	}
	bounds = append(bounds, rg.Lo)
	if rg.Hi != 0 {
		bounds = append(bounds, rg.Hi)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := m.Splits[:0:0]
	for i, b := range bounds {
		if i > 0 && b == bounds[i-1] {
			continue
		}
		owner := node
		if !rg.Contains(b) {
			owner = uint32(m.Owner(b))
		}
		if n := len(out); n > 0 && out[n-1].Node == owner {
			continue
		}
		out = append(out, Split{Start: b, Node: owner})
	}
	m.Splits = out
	return nil
}

// Shard map wire codec (SHARD_MAP reply / MAP_UPDATE request payload):
//
//	epoch     u64
//	nodeCount u32, then per node: transport u8, addrLen u16, addr bytes
//	splitCount u32, then per split: start u64, node u32

func appendEndpoint(dst []byte, ep Endpoint) []byte {
	// A name that fails the check never came from ParseEndpoint; like "",
	// it encodes as tcp.
	code, _ := transportIndex(ep.Transport)
	dst = append(dst, code)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ep.Addr)))
	return append(dst, ep.Addr...)
}

func parseEndpointWire(p []byte) (Endpoint, []byte, error) {
	if len(p) < 3 {
		return Endpoint{}, nil, fmt.Errorf("flowwire: truncated endpoint")
	}
	if int(p[0]) >= len(transports) {
		return Endpoint{}, nil, fmt.Errorf("flowwire: unknown transport code %d", p[0])
	}
	n := int(binary.LittleEndian.Uint16(p[1:3]))
	if len(p) < 3+n {
		return Endpoint{}, nil, fmt.Errorf("flowwire: truncated endpoint address")
	}
	return Endpoint{Transport: transports[p[0]], Addr: string(p[3 : 3+n])}, p[3+n:], nil
}

// AppendShardMap encodes m onto dst.
func AppendShardMap(dst []byte, m *ShardMap) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Nodes)))
	for _, ep := range m.Nodes {
		dst = appendEndpoint(dst, ep)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Splits)))
	for _, sp := range m.Splits {
		dst = binary.LittleEndian.AppendUint64(dst, sp.Start)
		dst = binary.LittleEndian.AppendUint32(dst, sp.Node)
	}
	return dst
}

// ParseShardMap decodes and validates a shard-map payload.
func ParseShardMap(p []byte) (*ShardMap, error) {
	if len(p) < 12 {
		return nil, fmt.Errorf("flowwire: shard map payload is %d bytes", len(p))
	}
	m := &ShardMap{Epoch: binary.LittleEndian.Uint64(p[0:8])}
	nodeCount := int(binary.LittleEndian.Uint32(p[8:12]))
	p = p[12:]
	if nodeCount > 1<<16 {
		return nil, fmt.Errorf("flowwire: shard map claims %d nodes", nodeCount)
	}
	var err error
	var ep Endpoint
	for i := 0; i < nodeCount; i++ {
		if ep, p, err = parseEndpointWire(p); err != nil {
			return nil, err
		}
		m.Nodes = append(m.Nodes, ep)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("flowwire: shard map truncated before splits")
	}
	splitCount := int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	if len(p) != splitCount*12 {
		return nil, fmt.Errorf("flowwire: shard map claims %d splits in %d bytes", splitCount, len(p))
	}
	for i := 0; i < splitCount; i++ {
		m.Splits = append(m.Splits, Split{
			Start: binary.LittleEndian.Uint64(p[i*12 : i*12+8]),
			Node:  binary.LittleEndian.Uint32(p[i*12+8 : i*12+12]),
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WrongShardError is the typed WRONG_SHARD redirect: the serving node does
// not own the key under its installed map at Epoch. The router compares
// Epoch against its own map's: newer means refetch the map (a cutover
// happened), not newer means transient disagreement — retry after refresh.
type WrongShardError struct {
	Epoch uint64
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("flowwire: wrong shard (server map epoch %d)", e.Epoch)
}

func appendWrongShard(dst []byte, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

func parseWrongShard(p []byte) error {
	if len(p) != 8 {
		return fmt.Errorf("flowwire: WRONG_SHARD payload is %d bytes, want 8", len(p))
	}
	return &WrongShardError{Epoch: binary.LittleEndian.Uint64(p)}
}

// MIG_START request payload: range lo u64, range hi u64, destination
// endpoint (transport u8, addrLen u16, addr).

func appendMigStartReq(dst []byte, rg Range, dstEp Endpoint) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rg.Lo)
	dst = binary.LittleEndian.AppendUint64(dst, rg.Hi)
	return appendEndpoint(dst, dstEp)
}

func parseMigStartReq(p []byte) (Range, Endpoint, error) {
	if len(p) < 16 {
		return Range{}, Endpoint{}, fmt.Errorf("flowwire: MIG_START payload is %d bytes", len(p))
	}
	rg := Range{
		Lo: binary.LittleEndian.Uint64(p[0:8]),
		Hi: binary.LittleEndian.Uint64(p[8:16]),
	}
	ep, rest, err := parseEndpointWire(p[16:])
	if err != nil {
		return Range{}, Endpoint{}, err
	}
	if len(rest) != 0 {
		return Range{}, Endpoint{}, fmt.Errorf("flowwire: MIG_START payload has %d trailing bytes", len(rest))
	}
	return rg, ep, nil
}

// MigInfo is the migration ledger a MIG_STATUS reply reports: the losing
// node's accounting of the records it owes the gaining node. The handoff
// invariant mirrors the drain ledger: at cutover Enqueued == Sent == Acked,
// so every record that entered the migration queue was applied remotely
// before the losing node surrendered the range.
type MigInfo struct {
	Active       bool   `json:"active"`
	Done         bool   `json:"done"` // a migration ran and fully drained
	RangeLo      uint64 `json:"range_lo"`
	RangeHi      uint64 `json:"range_hi"`
	SnapshotDone bool   `json:"snapshot_done"`
	Snapshotted  uint64 `json:"snapshotted"` // records emitted by the range scan
	Forwarded    uint64 `json:"forwarded"`   // double-written live mutations
	Enqueued     uint64 `json:"enqueued"`    // total records entering the queue
	Sent         uint64 `json:"sent"`        // records written to the gaining node
	Acked        uint64 `json:"acked"`       // records the gaining node confirmed
	Conflicts    uint64 `json:"conflicts"`   // benign snapshot/forward overlaps
	Err          string `json:"err,omitempty"`
}

// MIG_STATUS reply payload is JSON (cold admin path; keeps the ledger
// extensible without wire churn).

func appendMigInfo(dst []byte, mi *MigInfo) []byte {
	b, _ := json.Marshal(mi)
	return append(dst, b...)
}

func parseMigInfo(p []byte) (MigInfo, error) {
	var mi MigInfo
	if err := json.Unmarshal(p, &mi); err != nil {
		return MigInfo{}, fmt.Errorf("flowwire: MIG_STATUS payload: %w", err)
	}
	return mi, nil
}

// MigKind tags one migrated record with how it must be applied on the
// gaining node. The distinctions make the snapshot/double-write overlap
// races benign instead of lossy.
type MigKind uint8

const (
	// MigSnapshot is a record from the range scan: upsert. Per-key queue
	// order mirrors the losing node's apply order (the scan emits under the
	// shard lock and double-writes enqueue under the cluster lock), so the
	// last record for a key always carries its final value; a snapshot
	// record finding the key present is counted as a (benign) conflict.
	MigSnapshot MigKind = 1
	// MigUpsert is a double-written live INSERT or UPDATE: upsert, with no
	// conflict counted. (Kind 3, once a separate UPDATE kind, is retired and
	// fails the parse.)
	MigUpsert MigKind = 2
	// MigDelete is a double-written live DELETE: delete-if-present (a miss
	// is a benign conflict: the key's snapshot record was behind it and
	// never applied, or the range was fresh).
	MigDelete MigKind = 4
	// MigPurge clears the migrated hash range on the gaining node before
	// any data record lands: Value is the range's Lo, Key its 8-byte LE Hi.
	// It is always the first record of a migration stream, making retried
	// migrations safe — stale keys from an earlier failed attempt cannot
	// shadow (or resurrect into) the fresh copy.
	MigPurge MigKind = 5
)

// MIG_APPLY request payload: count u32, then per record: kind u8, value
// u64, keyLen u16, key bytes. Reply payload: applied u32, conflicts u32.

// MigRecord is one migrated key/value with its apply semantics.
type MigRecord struct {
	Kind  MigKind
	Value uint64
	Key   []byte
}

func appendMigRecords(dst []byte, recs []MigRecord) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, r.Value)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Key)))
		dst = append(dst, r.Key...)
	}
	return dst
}

// parseMigRecords decodes a MIG_APPLY payload; record keys alias p.
func parseMigRecords(p []byte, recs []MigRecord) ([]MigRecord, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("flowwire: MIG_APPLY payload is %d bytes", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	if count > MaxBatchKeys {
		return nil, fmt.Errorf("flowwire: MIG_APPLY claims %d records", count)
	}
	for i := 0; i < count; i++ {
		if len(p) < 11 {
			return nil, fmt.Errorf("flowwire: MIG_APPLY truncated at record %d", i)
		}
		kind := MigKind(p[0])
		switch kind {
		case MigSnapshot, MigUpsert, MigDelete, MigPurge:
		default:
			return nil, fmt.Errorf("flowwire: MIG_APPLY record %d has kind %d", i, kind)
		}
		value := binary.LittleEndian.Uint64(p[1:9])
		n := int(binary.LittleEndian.Uint16(p[9:11]))
		if len(p) < 11+n {
			return nil, fmt.Errorf("flowwire: MIG_APPLY record %d key truncated", i)
		}
		recs = append(recs, MigRecord{Kind: kind, Value: value, Key: p[11 : 11+n]})
		p = p[11+n:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("flowwire: MIG_APPLY payload has %d trailing bytes", len(p))
	}
	return recs, nil
}
