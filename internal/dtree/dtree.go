// Package dtree implements a decision-tree packet classifier in the style
// of the HiCuts/EffiCuts family the paper cites, as the §4.8 generality
// demonstration: the same HALO accelerator datapath that walks hash buckets
// also walks tree nodes ("HALO accelerator can be used to conduct the
// comparison with the nodes in the tree").
//
// Rules are ranges over the five-tuple fields. The builder splits the key
// space recursively until every region has a constant winning rule, then
// lays the nodes out in simulated memory in the accelerator's node format
// (halo.WriteInternalNode / halo.WriteLeafNode), so the software walk and
// the accelerator walk traverse the same bytes.
package dtree

import (
	"errors"
	"fmt"
	"sort"

	"halo/internal/cpu"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/packet"
)

// NumFields is the number of classifier dimensions.
const NumFields = 5

// Field geometry over the wire-order key (big-endian fields, 13 bytes).
var fieldOff = [NumFields]uint8{0, 4, 8, 10, 12}
var fieldWidth = [NumFields]uint16{4, 4, 2, 2, 1}
var fieldMax = [NumFields]uint64{1<<32 - 1, 1<<32 - 1, 1<<16 - 1, 1<<16 - 1, 1<<8 - 1}

// KeyBytes is the wire-order key length.
const KeyBytes = 13

// Key encodes a five-tuple in the tree's wire-order key format.
func Key(t packet.FiveTuple) []byte {
	k := make([]byte, KeyBytes)
	k[0], k[1], k[2], k[3] = byte(t.SrcIP>>24), byte(t.SrcIP>>16), byte(t.SrcIP>>8), byte(t.SrcIP)
	k[4], k[5], k[6], k[7] = byte(t.DstIP>>24), byte(t.DstIP>>16), byte(t.DstIP>>8), byte(t.DstIP)
	k[8], k[9] = byte(t.SrcPort>>8), byte(t.SrcPort)
	k[10], k[11] = byte(t.DstPort>>8), byte(t.DstPort)
	k[12] = t.Proto
	return k
}

// Rule is one range rule: a packet matches when every field falls in
// [Lo[f], Hi[f]]. Higher Priority wins among matching rules.
type Rule struct {
	Lo, Hi   [NumFields]uint64
	Priority uint16
	Value    uint64
}

// MatchesTuple reports whether a tuple hits the rule.
func (r Rule) MatchesTuple(t packet.FiveTuple) bool {
	v := [NumFields]uint64{uint64(t.SrcIP), uint64(t.DstIP), uint64(t.SrcPort), uint64(t.DstPort), uint64(t.Proto)}
	for f := 0; f < NumFields; f++ {
		if v[f] < r.Lo[f] || v[f] > r.Hi[f] {
			return false
		}
	}
	return true
}

// AnyRule returns a rule matching everything.
func AnyRule(priority uint16, value uint64) Rule {
	r := Rule{Priority: priority, Value: value}
	r.Hi = fieldMax
	return r
}

// Tree is a built classifier resident in simulated memory.
type Tree struct {
	space    *mem.Memory
	root     mem.Addr
	keyLen   int
	nodes    int
	maxDepth int
	rules    []Rule
}

// Build errors.
var (
	ErrNoRules     = errors.New("dtree: empty rule set")
	ErrUnsplittble = errors.New("dtree: rule set cannot be separated (identical overlapping rules?)")
	ErrTooDeep     = errors.New("dtree: construction exceeded the depth bound")
)

// buildDepthBound guards pathological rule sets.
const buildDepthBound = 48

type region struct {
	lo, hi [NumFields]uint64
}

func fullRegion() region {
	var r region
	r.hi = fieldMax
	return r
}

func (rg region) intersects(r Rule) bool {
	for f := 0; f < NumFields; f++ {
		if r.Hi[f] < rg.lo[f] || r.Lo[f] > rg.hi[f] {
			return false
		}
	}
	return true
}

func (rg region) containedBy(r Rule) bool {
	for f := 0; f < NumFields; f++ {
		if rg.lo[f] < r.Lo[f] || rg.hi[f] > r.Hi[f] {
			return false
		}
	}
	return true
}

// Build constructs the tree over the rules and lays it out via the
// allocator. The node count is bounded by the splitting process; pass rule
// sets with bounded overlap (classifier rule sets in practice).
func Build(space *mem.Memory, alloc *mem.Allocator, rules []Rule) (*Tree, error) {
	if len(rules) == 0 {
		return nil, ErrNoRules
	}
	t := &Tree{space: space, keyLen: KeyBytes, rules: append([]Rule(nil), rules...)}
	idx := make([]int, len(rules))
	for i := range idx {
		idx[i] = i
	}
	root, err := t.build(alloc, fullRegion(), idx, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Tree) build(alloc *mem.Allocator, rg region, idx []int, depth int) (mem.Addr, error) {
	if depth > buildDepthBound {
		return 0, ErrTooDeep
	}
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	covering := idx[:0:0]
	for _, i := range idx {
		if rg.intersects(t.rules[i]) {
			covering = append(covering, i)
		}
	}
	if len(covering) == 0 {
		addr := alloc.AllocLines(1)
		halo.WriteLeafNode(t.space, addr, 0, false)
		t.nodes++
		return addr, nil
	}
	// A region is homogeneous when some rule covers it entirely and
	// outranks every other rule touching it.
	best := -1
	for _, i := range covering {
		if rg.containedBy(t.rules[i]) {
			if best < 0 || t.rules[i].Priority > t.rules[best].Priority {
				best = i
			}
		}
	}
	if best >= 0 {
		homogeneous := true
		for _, i := range covering {
			if i != best && t.rules[i].Priority > t.rules[best].Priority {
				homogeneous = false
				break
			}
		}
		if homogeneous {
			addr := alloc.AllocLines(1)
			halo.WriteLeafNode(t.space, addr, t.rules[best].Value, true)
			t.nodes++
			return addr, nil
		}
	}

	field, split, ok := t.chooseSplit(rg, covering)
	if !ok {
		return 0, fmt.Errorf("%w (region %v, %d rules)", ErrUnsplittble, rg.lo, len(covering))
	}
	left := rg
	left.hi[field] = split - 1
	right := rg
	right.lo[field] = split

	addr := alloc.AllocLines(1)
	t.nodes++
	leftAddr, err := t.build(alloc, left, covering, depth+1)
	if err != nil {
		return 0, err
	}
	rightAddr, err := t.build(alloc, right, covering, depth+1)
	if err != nil {
		return 0, err
	}
	halo.WriteInternalNode(t.space, addr, fieldOff[field], fieldWidth[field],
		uint64(split), leftAddr, rightAddr)
	return addr, nil
}

// chooseSplit picks the (field, split) among rule boundaries that best
// balances the children, preferring splits that actually separate rules.
func (t *Tree) chooseSplit(rg region, covering []int) (field int, split uint64, ok bool) {
	bestScore := -1
	for f := 0; f < NumFields; f++ {
		var cands []uint64
		for _, i := range covering {
			r := t.rules[i]
			if r.Lo[f] > rg.lo[f] && r.Lo[f] <= rg.hi[f] {
				cands = append(cands, r.Lo[f])
			}
			if r.Hi[f] >= rg.lo[f] && r.Hi[f] < rg.hi[f] {
				cands = append(cands, r.Hi[f]+1)
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
		prev := uint64(0)
		first := true
		for _, c := range cands {
			if !first && c == prev {
				continue
			}
			first, prev = false, c
			left, right := rg, rg
			left.hi[f] = c - 1
			right.lo[f] = c
			nl, nr := 0, 0
			for _, i := range covering {
				if left.intersects(t.rules[i]) {
					nl++
				}
				if right.intersects(t.rules[i]) {
					nr++
				}
			}
			if nl == len(covering) && nr == len(covering) {
				continue // separates nothing
			}
			score := nl
			if nr > score {
				score = nr
			}
			if bestScore < 0 || score < bestScore {
				bestScore = score
				field, split, ok = f, c, true
			}
		}
	}
	return field, split, ok
}

// Root returns the root node's address — the operand a HALO walk query
// dispatches on.
func (t *Tree) Root() mem.Addr { return t.root }

// Nodes returns the node count.
func (t *Tree) Nodes() int { return t.nodes }

// MaxDepth returns the deepest path.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// Classify walks the tree functionally.
func (t *Tree) Classify(tp packet.FiveTuple) (uint64, bool) {
	key := Key(tp)
	node := t.root
	for depth := 0; depth <= buildDepthBound+1; depth++ {
		kind, field, width, split, left, right := t.readNode(node)
		if kind == halo.WalkLeaf {
			return left, right != 0
		}
		v := fieldVal(key, int(field), int(width))
		if v < split {
			node = mem.Addr(left)
		} else {
			node = mem.Addr(right)
		}
	}
	panic("dtree: cycle in tree")
}

// ClassifyTimed walks the tree in software, charging the thread one node
// load plus compare work per level.
func (t *Tree) ClassifyTimed(th *cpu.Thread, tp packet.FiveTuple) (uint64, bool) {
	th.Other(8)
	th.LocalStore(4)
	key := Key(tp)
	th.LocalLoad(2)
	th.ALU(6)
	node := t.root
	for depth := 0; depth <= buildDepthBound+1; depth++ {
		th.Load(node)
		th.LocalLoad(3)
		th.ALU(5)
		th.Other(2)
		kind, field, width, split, left, right := t.readNode(node)
		if kind == halo.WalkLeaf {
			th.Other(4)
			th.LocalLoad(3)
			return left, right != 0
		}
		v := fieldVal(key, int(field), int(width))
		if v < split {
			node = mem.Addr(left)
		} else {
			node = mem.Addr(right)
		}
	}
	panic("dtree: cycle in tree")
}

// ClassifyHalo walks the tree on a HALO accelerator. The key must already
// reside in simulated memory at keyAddr (e.g. written into a packet-buffer
// line with Key()).
func (t *Tree) ClassifyHalo(th *cpu.Thread, unit *halo.Unit, keyAddr mem.Addr) (uint64, bool) {
	r := unit.WalkB(th, t.root, keyAddr, t.keyLen)
	return r.Value, r.Found && !r.Fault
}

func (t *Tree) readNode(addr mem.Addr) (kind, field uint8, width uint16, split, left, right uint64) {
	var hdr [2]byte
	t.space.ReadAt(addr+4, hdr[:])
	kind, field = hdr[0], hdr[1]
	width = t.space.Load16(addr + 6)
	split = t.space.Load64(addr + 8)
	left = t.space.Load64(addr + 16)
	right = t.space.Load64(addr + 24)
	return
}

func fieldVal(key []byte, off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 8
		if off+i < len(key) {
			v |= uint64(key[off+i])
		}
	}
	return v
}
