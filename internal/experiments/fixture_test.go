package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"halo/internal/classify"
	"halo/internal/cpu"
	"halo/internal/cuckoo"
	"halo/internal/halo"
	"halo/internal/mem"
	"halo/internal/nf"
	"halo/internal/packet"
	"halo/internal/sim"
	"halo/internal/stats"
	"halo/internal/trafficgen"
)

// fixtureSizes are an LLC-resident table and the smallest power of two whose
// table (40 B a slot) outgrows the 32 MB LLC; the second is skipped under
// -short and -race.
func fixtureSizes() []uint64 {
	if testing.Short() || raceEnabled {
		return []uint64{1 << 14}
	}
	return []uint64{1 << 14, 1 << 20}
}

// fixtureRun drives f through the paths the raw-lookup experiments measure —
// software lookups without and with the optimistic lock, HALO blocking and
// non-blocking lookups — and then a timed insert/delete churn, and returns
// the thread clock after each and the encoded snapshot of the platform and
// thread at the end.
func fixtureRun(t *testing.T, f *lookupFixture) (clocks []sim.Cycle, snap string) {
	t.Helper()
	const lookups = 400
	th := f.thread
	fig10SoftwarePass(f, lookups, false)
	clocks = append(clocks, th.Now)
	fig10SoftwarePass(f, lookups, true)
	clocks = append(clocks, th.Now)
	for i := 0; i < lookups; i++ {
		f.p.Unit.LookupBAt(th, f.table.Base(), f.stageKeyDMA(uint64(i*7)))
	}
	clocks = append(clocks, th.Now)
	qs := make([]halo.NBQuery, 8)
	rs := make([]halo.NBResult, 8)
	for i := 0; i < lookups; i += len(qs) {
		for j := range qs {
			qs[j] = halo.NBQuery{TableAddr: f.table.Base(), KeyAddr: f.stageKeyDMA(uint64((i + j) * 11))}
		}
		f.p.Unit.LookupManyNBInto(th, qs, rs)
	}
	clocks = append(clocks, th.Now)
	var kb [testKeyLen]byte
	for i := uint64(0); i < lookups/4; i++ {
		testKeyInto(f.fill+i, kb[:])
		if err := f.table.TimedInsert(th, kb[:], i); err != nil {
			t.Fatal(err)
		}
		testKeyInto(i*13%f.fill, kb[:])
		f.table.TimedDelete(th, kb[:])
	}
	clocks = append(clocks, th.Now)
	s := stats.NewSnapshot()
	collectInto(s, f.p, th)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return clocks, string(data)
}

// TestFixtureCloneRunsLikeAFreshBuild: a clone taken before anything ran,
// and its source after the clone has run, each run exactly like a fixture
// built from scratch — same clocks, same snapshot.
func TestFixtureCloneRunsLikeAFreshBuild(t *testing.T) {
	for _, entries := range fixtureSizes() {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			source := newLookupFixture(entries, 0.75)
			wantClocks, wantSnap := fixtureRun(t, source.clone())
			for _, r := range []struct {
				name string
				f    *lookupFixture
			}{{"source after the clone ran", source}, {"fresh", newLookupFixture(entries, 0.75)}} {
				clocks, snap := fixtureRun(t, r.f)
				if fmt.Sprint(clocks) != fmt.Sprint(wantClocks) {
					t.Errorf("%s: clocks after each pass %v, the clone's %v", r.name, clocks, wantClocks)
				}
				if snap != wantSnap {
					t.Errorf("%s: snapshot differs from the clone's:\n%s\n%s", r.name, snap, wantSnap)
				}
			}
		})
	}
}

// sequentialFixture builds what fixtureOn builds with the warm-up after the
// fill rather than beside it.
func sequentialFixture(entries uint64, occupancy float64) *lookupFixture {
	p := halo.NewPlatform(halo.DefaultPlatformConfig())
	table, err := p.NewTable(cuckoo.Config{Entries: entries, KeyLen: 16})
	if err != nil {
		panic(err)
	}
	f := &lookupFixture{p: p, table: table, thread: cpu.NewThread(p.Hier, 0)}
	var kb [testKeyLen]byte
	for n := max(uint64(float64(entries)*occupancy), 1); f.fill < n; f.fill++ {
		testKeyInto(f.fill, kb[:])
		if table.Insert(kb[:], f.fill*2+1) != nil {
			break
		}
	}
	pool := p.Alloc.AllocLines(keyPoolLines)
	for i := 0; i < keyPoolLines; i++ {
		f.keyPool = append(f.keyPool, pool+mem.Addr(i)*mem.LineSize)
	}
	p.WarmTable(table)
	return f
}

// TestFixtureWarmBesideFillMatchesSequential: fixtureOn's overlapped fill
// and warm-up leave every table and key-pool line where fill-then-warm
// leaves it, and a timed run gives the same clocks and snapshot.
func TestFixtureWarmBesideFillMatchesSequential(t *testing.T) {
	for _, entries := range fixtureSizes() {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			got, want := newLookupFixture(entries, 0.75), sequentialFixture(entries, 0.75)
			if got.fill != want.fill || got.table.Stats() != want.table.Stats() {
				t.Fatalf("fill %d %+v, sequential %d %+v", got.fill, got.table.Stats(), want.fill, want.table.Stats())
			}
			tb := got.table
			lines := []mem.Addr{tb.Base()}
			for a := tb.BucketAddr(0); a <= tb.BucketAddr(tb.BucketCount()-1); a += mem.LineSize {
				lines = append(lines, a)
			}
			for a := tb.KVAddr(0); a <= tb.KVAddr(uint32(tb.Capacity()-1)); a += mem.LineSize {
				lines = append(lines, a)
			}
			lines = append(lines, got.keyPool...)
			for _, a := range lines {
				g1, g2, g3 := got.p.Hier.Present(0, a)
				w1, w2, w3 := want.p.Hier.Present(0, a)
				if g1 != w1 || g2 != w2 || g3 != w3 {
					t.Fatalf("line %#x: present (L1 %v, L2 %v, LLC %v), sequential (%v, %v, %v)", a, g1, g2, g3, w1, w2, w3)
				}
			}
			gotClocks, gotSnap := fixtureRun(t, got)
			wantClocks, wantSnap := fixtureRun(t, want)
			if fmt.Sprint(gotClocks) != fmt.Sprint(wantClocks) || gotSnap != wantSnap {
				t.Errorf("overlapped build runs differently: clocks %v vs %v\n%s\n%s", gotClocks, wantClocks, gotSnap, wantSnap)
			}
		})
	}
}

// sameTables fails unless each table of got, on platform gp, holds what the
// matching table of want, on wp, holds: the same bytes, each line in the
// same place in the hierarchy (Present), and the same handle state.
func sameTables(t *testing.T, gp *halo.Platform, got []*cuckoo.Table, wp *halo.Platform, want []*cuckoo.Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tables, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Base() != w.Base() || g.Size() != w.Size() || g.Stats() != w.Stats() || g.Capacity() != w.Capacity() || g.KeyLen() != w.KeyLen() {
			t.Fatalf("table %d: base %#x size %d %+v, fresh %#x %d %+v", i, g.Base(), g.Size(), g.Stats(), w.Base(), w.Size(), w.Stats())
		}
		size := cuckoo.Footprint(cuckoo.Config{Entries: g.Capacity(), KeyLen: g.KeyLen(), SFH: g.IsSFH()})
		gb, wb := make([]byte, size), make([]byte, size)
		gp.Space.ReadAt(g.Base(), gb)
		wp.Space.ReadAt(w.Base(), wb)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("table %d: memory differs from a fresh build", i)
		}
		for a := g.Base(); a < g.Base()+mem.Addr(size); a += mem.LineSize {
			g1, g2, g3 := gp.Hier.Present(0, a)
			w1, w2, w3 := wp.Hier.Present(0, a)
			if g1 != w1 || g2 != w2 || g3 != w3 {
				t.Fatalf("table %d line %#x: present (%v %v %v), fresh (%v %v %v)", i, a, g1, g2, g3, w1, w2, w3)
			}
		}
	}
}

// TestTupleSpaceCloneIsAFreshBuild: a clone of the shared Fig. 11 tuple
// space holds what a fresh build does and classifies like it, clock and
// snapshot, and a rule installed through the clone stays out of the
// prototype.
func TestTupleSpaceCloneIsAFreshBuild(t *testing.T) {
	cfg := QuickConfig()
	proto := sharedFig11Space(cfg, 5)
	proto.p.Space.MarkShared()
	p, ts := proto.ts.Clone(proto.p)
	fresh := sharedFig11Space(cfg, 5) // no store: a build of its own

	tables := func(ts *classify.TupleSpace) (out []*cuckoo.Table) {
		for _, tp := range ts.Tuples() {
			out = append(out, tp.Table)
		}
		return out
	}
	sameTables(t, p, tables(ts), fresh.p, tables(fresh.ts))
	if ts.RuleCount() != fresh.ts.RuleCount() {
		t.Fatalf("%d rules, fresh %d", ts.RuleCount(), fresh.ts.RuleCount())
	}
	run := func(p *halo.Platform, ts *classify.TupleSpace) (sim.Cycle, string) {
		th := newThreadOn(p)
		for i, key := range fresh.keys[:200] {
			if _, ok := ts.ClassifyHaloNB(th, p.Unit, key); !ok {
				t.Fatalf("key %d matched no rule", i)
			}
			ts.ClassifyTimed(th, key, cuckoo.DefaultLookupOptions())
		}
		s := stats.NewSnapshot()
		collectInto(s, p, th)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return th.Now, string(data)
	}
	gotNow, gotSnap := run(p, ts)
	wantNow, wantSnap := run(fresh.p, fresh.ts)
	if gotNow != wantNow || gotSnap != wantSnap {
		t.Fatalf("the clone classifies in %d cycles, a fresh build in %d\n%s\n%s", gotNow, wantNow, gotSnap, wantSnap)
	}

	mask := ts.Tuples()[0].Mask
	rule := packet.FiveTuple{SrcIP: 0xdeadbeef, DstPort: 4242}
	if err := ts.InsertRule(mask, rule, classify.Match{RuleID: 99}); err != nil {
		t.Fatal(err)
	}
	if _, ok := proto.ts.Classify(mask.Apply(rule)); ok {
		t.Fatal("a rule installed through the clone reached the prototype")
	}
}

// TestNFCloneIsAFreshBuild: for each Fig. 13 NF and engine, a clone of the
// shared preloaded, warmed NF holds what an NF built fresh with that engine
// — preloaded, then warmed — holds, and processes packets in the same
// cycles with the same snapshot.
func TestNFCloneIsAFreshBuild(t *testing.T) {
	cfg := QuickConfig()
	const entries = 1000
	for _, name := range []string{"nat", "prads", "packet-filter"} {
		for _, engine := range []nf.Engine{nf.EngineSoftware, nf.EngineHalo} {
			t.Run(fmt.Sprintf("%s/engine=%d", name, engine), func(t *testing.T) {
				proto := sharedFig13NF(cfg, name, entries)
				proto.p.Space.MarkShared()
				protoSize := proto.nf.Table().Size()
				p, got := proto.nf.Clone(engine)

				wp := halo.NewPlatform(halo.DefaultPlatformConfig())
				flows := trafficgen.RandomTuples(entries, cfg.Seed)
				var want interface {
					nf.NF
					tableNF
				}
				var err error
				switch name {
				case "nat":
					var n *nf.NAT
					if n, err = nf.NewNAT(wp, engine, entries*4/3); err == nil {
						err = n.Preload(flows)
					}
					want = n
				case "prads":
					var n *nf.Prads
					if n, err = nf.NewPrads(wp, engine, entries*4/3); err == nil {
						hosts := make([]uint32, len(flows))
						for i, f := range flows {
							hosts[i] = f.SrcIP
						}
						err = n.Preload(hosts)
					}
					want = n
				case "packet-filter":
					var n *nf.Filter
					if n, err = nf.NewFilter(wp, engine, entries*4/3); err == nil {
						for i, f := range flows {
							if err = n.AddRule(f, i%3 == 0); err != nil {
								break
							}
						}
					}
					want = n
				}
				if err != nil {
					t.Fatal(err)
				}
				wp.WarmTable(want.Table())
				sameTables(t, p, []*cuckoo.Table{got.(tableNF).Table()}, wp, []*cuckoo.Table{want.Table()})

				run := func(p *halo.Platform, n nf.NF) (sim.Cycle, string) {
					th := newThreadOn(p)
					for i := 0; i < 300; i++ {
						f := flows[(i*37)%len(flows)]
						if i%10 == 0 {
							f.SrcPort++ // a miss: NAT and prads insert
						}
						pkt := packet.Packet{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: f.Proto, PayloadBytes: 22}
						n.ProcessPacket(th, &pkt)
					}
					s := stats.NewSnapshot()
					collectInto(s, p, th)
					data, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					return th.Now, string(data)
				}
				gotNow, gotSnap := run(p, got)
				wantNow, wantSnap := run(wp, want)
				if gotNow != wantNow || gotSnap != wantSnap {
					t.Fatalf("the clone processes in %d cycles, a fresh build in %d\n%s\n%s", gotNow, wantNow, gotSnap, wantSnap)
				}
				if size := proto.nf.Table().Size(); size != protoSize {
					t.Fatalf("running the clone changed the prototype's table: size %d, was %d", size, protoSize)
				}
			})
		}
	}
}
