package flowcluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"halo/internal/flowserve"
	"halo/internal/flowwire"
	"halo/internal/stats"
)

const testKeyLen = 20

func tkey(i uint64) []byte {
	k := make([]byte, testKeyLen)
	binary.LittleEndian.PutUint64(k, i)
	binary.LittleEndian.PutUint64(k[8:], i*0x9e3779b97f4a7c15)
	return k
}

// startCluster brings up n in-process cluster nodes on loopback listeners
// and returns their endpoints plus the backing tables (the oracle can read
// node state directly). Listeners are opened first so every node knows the
// full endpoint set before its server starts.
func startCluster(t testing.TB, n int) ([]flowwire.Endpoint, []*flowserve.Table) {
	t.Helper()
	eps, tbls, _ := startClusterServers(t, n, nil)
	return eps, tbls
}

// startClusterServers is startCluster for the tests that also stop a node or
// see its frames: wrap, if not nil, wraps every node's listener.
func startClusterServers(t testing.TB, n int, wrap func(net.Listener) net.Listener) ([]flowwire.Endpoint, []*flowserve.Table, []*flowwire.Server) {
	t.Helper()
	lns := make([]net.Listener, n)
	eps := make([]flowwire.Endpoint, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		eps[i] = flowwire.Endpoint{Transport: flowwire.TransportTCP, Addr: ln.Addr().String()}
	}
	tbls := make([]*flowserve.Table, n)
	srvs := make([]*flowwire.Server, n)
	for i := range lns {
		tbl, err := flowserve.New(flowserve.Config{Shards: 4, Entries: 1 << 16, KeyLen: testKeyLen})
		if err != nil {
			t.Fatal(err)
		}
		tbls[i] = tbl
		srv, err := flowwire.NewServer(flowwire.Config{Table: tbl, Self: eps[i], Cluster: eps})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		serveErr := make(chan error, 1)
		ln := lns[i]
		if wrap != nil {
			ln = wrap(ln)
		}
		go func() { serveErr <- srv.Serve(ln) }()
		t.Cleanup(func() {
			srv.Close()
			if err := <-serveErr; err != nil && err != flowwire.ErrServerClosed {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	return eps, tbls, srvs
}

func dialRouter(t testing.TB, eps []flowwire.Endpoint) *Router {
	t.Helper()
	r, err := New(eps, Options{Client: flowwire.Options{Conns: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// splitRange returns the full range of the map's i-th split.
func splitRange(m *flowwire.ShardMap, i int) flowwire.Range {
	rg := flowwire.Range{Lo: m.Splits[i].Start}
	if i+1 < len(m.Splits) {
		rg.Hi = m.Splits[i+1].Start
	}
	return rg
}

func TestClusterBasic(t *testing.T) {
	eps, tbls := startCluster(t, 3)
	r := dialRouter(t, eps)

	if r.KeyLen() != testKeyLen {
		t.Fatalf("KeyLen = %d", r.KeyLen())
	}
	if r.Epoch() != 1 {
		t.Fatalf("bootstrap epoch = %d", r.Epoch())
	}

	// Oracle: a plain map the cluster must agree with.
	const n = 2000
	oracle := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		if err := r.Insert(tkey(i), i*3+1); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
		oracle[i] = i*3 + 1
	}
	// Keys landed spread across the nodes, not on one.
	for i, tbl := range tbls {
		if sz := tbl.Size(); sz == 0 || sz == n {
			t.Fatalf("node %d holds %d of %d keys", i, sz, n)
		}
	}
	// Duplicate insert surfaces the table's typed error through the router.
	if err := r.Insert(tkey(0), 99); err != flowserve.ErrKeyExists {
		t.Fatalf("duplicate insert = %v", err)
	}

	// Point lookups, updates, deletes.
	for i := uint64(0); i < n; i += 7 {
		if !r.Update(tkey(i), i+100) {
			t.Fatalf("Update(%d) = false", i)
		}
		oracle[i] = i + 100
	}
	for i := uint64(0); i < n; i += 13 {
		if !r.Delete(tkey(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
		delete(oracle, i)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := r.Lookup(tkey(i))
		want, wantOK := oracle[i]
		if ok != wantOK || v != want {
			t.Fatalf("Lookup(%d) = %d,%v want %d,%v", i, v, ok, want, wantOK)
		}
	}

	// Batched lookups, including misses and a bad-length key.
	keys := make([][]byte, 0, 512)
	for i := uint64(0); i < 510; i++ {
		keys = append(keys, tkey(i))
	}
	keys = append(keys, tkey(1<<40)) // never inserted
	keys = append(keys, []byte{1})   // wrong length
	results := make([]flowserve.Result, len(keys))
	hits := r.LookupMany(keys, results)
	wantHits := 0
	for i := uint64(0); i < 510; i++ {
		want, wantOK := oracle[i]
		if results[i].OK != wantOK || results[i].Value != want {
			t.Fatalf("LookupMany[%d] = %+v want %d,%v", i, results[i], want, wantOK)
		}
		if wantOK {
			wantHits++
		}
	}
	if hits != wantHits || results[510].OK || results[511].OK {
		t.Fatalf("hits = %d want %d; tail = %+v %+v", hits, wantHits, results[510], results[511])
	}

	if errs := r.c.errors.Load(); errs != 0 {
		t.Fatalf("router errors = %d", errs)
	}

	// Cluster stats rollup sees every node's serving counters.
	snap, err := r.StatsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["flowwire.frames.accepted"] == 0 {
		t.Fatalf("rollup missing server counters: %v", snap.Names())
	}
	if _, ok := snap.Counters["flowcluster.batches"]; !ok {
		t.Fatal("rollup missing router counters")
	}
}

func TestClusterMigrationUnderLoad(t *testing.T) {
	eps, tbls := startCluster(t, 3)
	r := dialRouter(t, eps)

	const n = 4000
	for i := uint64(0); i < n; i++ {
		if err := r.Insert(tkey(i), i); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer the cluster from a second router while the range moves: the
	// writer keeps updating every key to a generation-stamped value, the
	// reader checks batches. A stale-map router is exactly the client a
	// live migration must not lose requests from.
	loadR := dialRouter(t, eps)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var gens [n]uint64 // gens[i] = last value the writer wrote for key i
	var genMu sync.Mutex
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for gen := uint64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Uint64() % n
			v := gen<<32 | i
			if !loadR.Update(tkey(i), v) {
				// A miss here is a real loss: the key was inserted and
				// never deleted.
				select {
				case <-stop:
				default:
					panic(fmt.Sprintf("Update(%d) lost mid-migration", i))
				}
				return
			}
			genMu.Lock()
			gens[i] = v
			genMu.Unlock()
		}
	}()
	go func() { // batched reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		keys := make([][]byte, 64)
		results := make([]flowserve.Result, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range keys {
				keys[j] = tkey(rng.Uint64() % n)
			}
			loadR.LookupMany(keys, results)
			for j := range results {
				if !results[j].OK {
					panic(fmt.Sprintf("LookupMany lost key %x mid-migration", keys[j]))
				}
			}
		}
	}()

	// Move node 0's whole range to node 1, then a sub-range of node 2's to
	// node 0 — two cutovers under load.
	m := r.Map()
	rg0 := splitRange(m, 0)
	mi, err := r.MoveRange(rg0, 1, 10*time.Second)
	if err != nil {
		t.Fatalf("MoveRange 1: %v (ledger %+v)", err, mi)
	}
	if !mi.Done || mi.Enqueued != mi.Sent || mi.Sent != mi.Acked || mi.Snapshotted == 0 {
		t.Fatalf("ledger after move 1: %+v", mi)
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch after move 1 = %d", r.Epoch())
	}

	m = r.Map()
	for i := range m.Splits {
		rg := splitRange(m, i)
		if own, ok := m.RangeOwner(rg); ok && own == 2 {
			// Halve it so node 2 keeps some keys.
			mid := rg.Lo + (rg.Hi-rg.Lo)/2
			if rg.Hi == 0 {
				mid = rg.Lo + (^uint64(0)-rg.Lo)/2
			}
			sub := flowwire.Range{Lo: rg.Lo, Hi: mid}
			mi, err = r.MoveRange(sub, 0, 10*time.Second)
			if err != nil {
				t.Fatalf("MoveRange 2: %v (ledger %+v)", err, mi)
			}
			break
		}
	}
	if r.Epoch() != 3 {
		t.Fatalf("epoch after move 2 = %d", r.Epoch())
	}

	close(stop)
	wg.Wait()

	// Node 0 surrendered its whole original range but gained half of node
	// 2's; node 0's table must hold only keys it now owns, and the losing
	// node purged the moved range.
	nm := r.Map()
	for ni, tbl := range tbls {
		tbl.ScanRange(0, 0, func(key []byte, _ uint64) {
			if own := nm.OwnerOfKey(key); own != ni {
				t.Errorf("node %d still holds key %x owned by node %d", ni, key, own)
			}
		})
	}

	// Every key is still present exactly once with the last written value
	// (or its insert value if the writer never touched it).
	genMu.Lock()
	defer genMu.Unlock()
	for i := uint64(0); i < n; i++ {
		v, ok := r.Lookup(tkey(i))
		if !ok {
			t.Fatalf("key %d lost after migrations", i)
		}
		want := gens[i]
		if want == 0 {
			want = i
		}
		if v != want {
			t.Fatalf("key %d = %#x, want %#x", i, v, want)
		}
	}
	if errs := loadR.c.errors.Load(); errs != 0 {
		t.Fatalf("load router errors = %d", errs)
	}
	if errs := r.c.errors.Load(); errs != 0 {
		t.Fatalf("coordinator router errors = %d", errs)
	}
}

// TestClusterPropertyVsOracle runs randomized concurrent workers — each
// owning a disjoint key partition with a local model map — against the
// cluster while the main goroutine keeps moving ranges between nodes. Every
// worker verifies every operation's result against its model as it goes
// (per-partition ordering makes the model exact without cross-worker
// coordination), then does a final full sweep. Run under -race in CI with a
// migration permanently in flight.
func TestClusterPropertyVsOracle(t *testing.T) {
	eps, _ := startCluster(t, 3)
	r := dialRouter(t, eps)

	const (
		workers      = 4
		keysPerPart  = 512
		opsPerWorker = 3000
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := dialRouter(t, eps)
			rng := rand.New(rand.NewSource(int64(100 + w)))
			model := make(map[uint64]uint64, keysPerPart)
			base := uint64(w) * keysPerPart
			fail := func(format string, args ...any) {
				errc <- fmt.Errorf("worker %d: %s", w, fmt.Sprintf(format, args...))
			}
			for op := 0; op < opsPerWorker; op++ {
				i := base + rng.Uint64()%keysPerPart
				key := tkey(i)
				switch rng.Intn(10) {
				case 0, 1: // insert
					err := wr.Insert(key, uint64(op)<<16|i)
					if _, exists := model[i]; exists {
						if err != flowserve.ErrKeyExists {
							fail("Insert(%d) on existing = %v", i, err)
							return
						}
					} else if err != nil {
						fail("Insert(%d) = %v", i, err)
						return
					} else {
						model[i] = uint64(op)<<16 | i
					}
				case 2, 3: // update
					found := wr.Update(key, uint64(op)<<16|i)
					if _, exists := model[i]; found != exists {
						fail("Update(%d) = %v, model says %v", i, found, exists)
						return
					}
					if found {
						model[i] = uint64(op)<<16 | i
					}
				case 4: // delete
					found := wr.Delete(key)
					if _, exists := model[i]; found != exists {
						fail("Delete(%d) = %v, model says %v", i, found, exists)
						return
					}
					delete(model, i)
				case 5, 6, 7: // point lookup
					v, ok := wr.Lookup(key)
					want, wantOK := model[i]
					if ok != wantOK || v != want {
						fail("Lookup(%d) = %d,%v want %d,%v", i, v, ok, want, wantOK)
						return
					}
				default: // batch lookup of 16 partition keys
					keys := make([][]byte, 16)
					idx := make([]uint64, 16)
					for j := range keys {
						idx[j] = base + rng.Uint64()%keysPerPart
						keys[j] = tkey(idx[j])
					}
					results := make([]flowserve.Result, 16)
					wr.LookupMany(keys, results)
					for j := range results {
						want, wantOK := model[idx[j]]
						if results[j].OK != wantOK || results[j].Value != want {
							fail("LookupMany(%d) = %+v want %d,%v", idx[j], results[j], want, wantOK)
							return
						}
					}
				}
			}
			// Final sweep: the whole partition matches the model.
			for i := base; i < base+keysPerPart; i++ {
				v, ok := wr.Lookup(tkey(i))
				want, wantOK := model[i]
				if ok != wantOK || v != want {
					fail("final Lookup(%d) = %d,%v want %d,%v", i, v, ok, want, wantOK)
					return
				}
			}
			if errs := wr.c.errors.Load(); errs != 0 {
				fail("router errors = %d", errs)
			}
		}(w)
	}

	// Keep cutting ranges over while the workers run: pick a split, move
	// half of it to a different node. Every move bumps the epoch, so every
	// worker keeps getting redirected off its stale map.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	rng := rand.New(rand.NewSource(7))
	moves := 0
mover:
	for {
		select {
		case <-done:
			break mover
		default:
		}
		m := r.Map()
		i := rng.Intn(len(m.Splits))
		rg := splitRange(m, i)
		var mid uint64
		if rg.Hi == 0 {
			mid = rg.Lo + (^uint64(0)-rg.Lo)/2
		} else {
			mid = rg.Lo + (rg.Hi-rg.Lo)/2
		}
		if mid <= rg.Lo {
			continue
		}
		sub := flowwire.Range{Lo: rg.Lo, Hi: mid}
		src, ok := m.RangeOwner(sub)
		if !ok {
			continue
		}
		dst := (src + 1 + rng.Intn(2)) % 3
		if dst == src {
			continue
		}
		if _, err := r.MoveRange(sub, dst, 10*time.Second); err != nil {
			t.Errorf("MoveRange %s -> %d: %v", sub, dst, err)
			break
		}
		moves++
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if moves == 0 {
		t.Error("no migrations completed during property run")
	}
	t.Logf("property run survived %d migrations, final epoch %d", moves, r.Epoch())
}

// TestWrongShardDirect drives a raw single-node client at a cluster node and
// checks the typed WRONG_SHARD redirect surfaces with the server's epoch —
// the contract the router's redirect loop is built on.
func TestWrongShardDirect(t *testing.T) {
	eps, _ := startCluster(t, 3)
	r := dialRouter(t, eps)
	m := r.Map()

	// Find a key owned by node 1, then ask node 0 for it directly.
	var key []byte
	for i := uint64(0); ; i++ {
		if m.OwnerOfKey(tkey(i)) == 1 {
			key = tkey(i)
			break
		}
	}
	if err := r.Insert(key, 77); err != nil {
		t.Fatal(err)
	}
	cl, err := flowwire.DialEndpoint(eps[0], flowwire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	lt, err := cl.StartLookupMany([][]byte{key})
	if err == nil {
		err = lt.Wait(make([]flowserve.Result, 1), nil)
	}
	var ws *flowwire.WrongShardError
	if !asWrongShard(err, &ws) || ws.Epoch != m.Epoch {
		t.Fatalf("one-key LOOKUP_MANY at wrong node = %v, want WrongShardError epoch %d", err, m.Epoch)
	}
	if _, err := cl.UpdateE(key, 1); !asWrongShard(err, &ws) {
		t.Fatalf("UpdateE at wrong node = %v", err)
	}
	if _, err := cl.DeleteE(key); !asWrongShard(err, &ws) {
		t.Fatalf("DeleteE at wrong node = %v", err)
	}
	if err := cl.Insert(key, 1); !asWrongShard(err, &ws) {
		t.Fatalf("Insert at wrong node = %v", err)
	}
	// The untyped Lookup coerces the redirect to a miss without wedging the
	// connection.
	if _, ok := cl.Lookup(key); ok {
		t.Fatal("untyped Lookup at wrong node = hit")
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("connection wedged: %v", err)
	}
}

func asWrongShard(err error, ws **flowwire.WrongShardError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*flowwire.WrongShardError)
	if ok {
		*ws = e
	}
	return ok
}

// ownedKeys inserts per keys for every node of r's map and returns them by
// owner; key i carries value i+1.
func ownedKeys(t testing.TB, r *Router, per int) (keys [][][]byte, value map[string]uint64) {
	t.Helper()
	m := r.Map()
	keys = make([][][]byte, len(m.Nodes))
	value = make(map[string]uint64)
	for i, short := uint64(0), len(m.Nodes); short > 0; i++ {
		k := tkey(i)
		owner := m.OwnerOfKey(k)
		if len(keys[owner]) == per {
			continue
		}
		if err := r.Insert(k, i+1); err != nil {
			t.Fatal(err)
		}
		value[string(k)] = i + 1
		if keys[owner] = append(keys[owner], k); len(keys[owner]) == per {
			short--
		}
	}
	return keys, value
}

// checkCoercedFailures drives every router op at keys whose owner (node
// dead) cannot serve and checks the failure accounting: each error-free
// read or write signature coerces to a miss/false and adds exactly the
// failed key count to Errors(), Insert surfaces its error instead, a batch
// still serves the keys whose owners are alive, and wrong-length keys are
// the caller's misses, not failures.
func checkCoercedFailures(t *testing.T, r *Router, keys [][][]byte, value map[string]uint64, dead int) {
	t.Helper()
	grew := func(what string, by uint64, op func()) {
		t.Helper()
		before := r.c.errors.Load()
		op()
		if got := r.c.errors.Load() - before; got != by {
			t.Errorf("%s added %d to Errors(), want %d", what, got, by)
		}
	}
	key := keys[dead][0]
	grew("Lookup", 1, func() {
		if _, ok := r.Lookup(key); ok {
			t.Error("Lookup at the dead node = hit")
		}
	})
	grew("Update", 1, func() {
		if r.Update(key, 9) {
			t.Error("Update at the dead node = true")
		}
	})
	grew("Delete", 1, func() {
		if r.Delete(key) {
			t.Error("Delete at the dead node = true")
		}
	})
	grew("Insert", 0, func() {
		if err := r.Insert(key, 9); err == nil || err == flowserve.ErrKeyExists {
			t.Errorf("Insert at the dead node = %v, want the failure itself", err)
		}
	})

	var batch [][]byte
	for _, owned := range keys {
		batch = append(batch, owned...)
	}
	batch = append(batch, []byte{1}) // wrong length
	results := make([]flowserve.Result, len(batch))
	wantHits := len(batch) - 1 - len(keys[dead])
	grew("LookupMany", uint64(len(keys[dead])), func() {
		if hits := r.LookupMany(batch, results); hits != wantHits {
			t.Errorf("LookupMany hits = %d, want %d", hits, wantHits)
		}
	})
	m := r.Map()
	for i, k := range batch[:len(batch)-1] {
		want, wantOK := value[string(k)], m.OwnerOfKey(k) != dead
		if !wantOK {
			want = 0
		}
		if results[i].OK != wantOK || results[i].Value != want {
			t.Errorf("LookupMany[%d] (owner %d) = %+v, want %d,%v", i, m.OwnerOfKey(k), results[i], want, wantOK)
		}
	}

	grew("wrong-length keys", 0, func() {
		short := []byte{1, 2, 3}
		if _, ok := r.Lookup(short); ok {
			t.Error("Lookup of a short key = hit")
		}
		if r.Update(short, 1) || r.Delete(short) {
			t.Error("Update/Delete of a short key = true")
		}
		if err := r.Insert(short, 1); err != flowserve.ErrKeyLen {
			t.Errorf("Insert of a short key = %v, want ErrKeyLen", err)
		}
		r.LookupMany([][]byte{short, short}, make([]flowserve.Result, 2))
	})
}

// TestRouterCountsCoercedFailures pins flowcluster.errors, the counter the
// zero-loss gates read: a failure the Reader/Writer signatures hide must
// show up there, once per failed key, whether the owner died after it was
// dialed or could never be dialed at all.
func TestRouterCountsCoercedFailures(t *testing.T) {
	t.Run("node-stopped", func(t *testing.T) {
		eps, _, srvs := startClusterServers(t, 3, nil)
		r := dialRouter(t, eps)
		keys, value := ownedKeys(t, r, 4)
		srvs[1].Close()
		checkCoercedFailures(t, r, keys, value, 1)
	})
	// A map naming an endpoint nobody listens on: the view holds no client
	// for that node, and routing there reports the dial error.
	t.Run("node-undialable", func(t *testing.T) {
		eps, _ := startCluster(t, 3)
		r := dialRouter(t, eps)
		keys, value := ownedKeys(t, r, 4)
		dialErr := makeUndialable(t, r, 2)
		if err := r.Insert(keys[2][0], 9); !errors.Is(err, dialErr) {
			t.Fatalf("Insert at the undialable node = %v, want %v", err, dialErr)
		}
		checkCoercedFailures(t, r, keys, value, 2)
		if _, err := r.StatsSnapshot(); !errors.Is(err, dialErr) {
			t.Fatalf("StatsSnapshot = %v, want %v", err, dialErr)
		}
	})
	// Both at once, in one batch: each failed node costs exactly its own
	// keys, the third node's keys are answered in the same call, and every
	// owner still counts as one sub-batch.
	t.Run("one-stopped-one-undialable", func(t *testing.T) {
		eps, _, srvs := startClusterServers(t, 3, nil)
		r := dialRouter(t, eps)
		keys, value := ownedKeys(t, r, 4)
		srvs[1].Close()
		makeUndialable(t, r, 2)

		batch := spreadBatch(keys)
		results := make([]flowserve.Result, len(batch))
		errs, subs := r.c.errors.Load(), r.c.subBatches.Load()
		for call := 1; call <= 2; call++ {
			if hits := r.LookupMany(batch, results); hits != len(keys[0]) {
				t.Fatalf("call %d: %d hits, want node 0's %d", call, hits, len(keys[0]))
			}
			for i, k := range batch {
				want := flowserve.Result{}
				if r.Map().OwnerOfKey(k) == 0 {
					want = flowserve.Result{Value: value[string(k)], OK: true}
				}
				if results[i] != want {
					t.Errorf("call %d: results[%d] (owner %d) = %+v, want %+v", call, i, r.Map().OwnerOfKey(k), results[i], want)
				}
			}
			if got, want := r.c.errors.Load()-errs, uint64(call*(len(keys[1])+len(keys[2]))); got != want {
				t.Errorf("call %d: Errors() grew by %d, want %d", call, got, want)
			}
			if got, want := r.c.subBatches.Load()-subs, uint64(3*call); got != want {
				t.Errorf("call %d: %d sub-batches, want %d", call, got, want)
			}
		}
		if n := r.c.redirects.Load() + r.c.exhausted.Load(); n != 0 {
			t.Errorf("a dead node was followed as a redirect %d times", n)
		}
	})
}

// makeUndialable installs on r a map whose node names an endpoint nobody
// listens on and returns the dial error the new view holds in the client's
// place.
func makeUndialable(t *testing.T, r *Router, node int) error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	nm := r.Map().Clone()
	nm.Nodes[node] = flowwire.Endpoint{Transport: flowwire.TransportTCP, Addr: ln.Addr().String()}
	nm.Epoch++
	r.install(nm)

	cl, dialErr := r.v.Load().client(node)
	if r.Epoch() != nm.Epoch || cl != nil || dialErr == nil {
		t.Fatalf("view at epoch %d holds client %v, error %v for the undialable node", r.Epoch(), cl, dialErr)
	}
	return dialErr
}

// TestLookupManyResendsOnlyTheRejectedSubBatch pins the partial redirect: a
// router whose map is one cutover behind sends three sub-batches, one node
// answers WRONG_SHARD, and the second round carries that node's keys alone —
// the other two owners' answers stand from round one and are not asked for
// again.
func TestLookupManyResendsOnlyTheRejectedSubBatch(t *testing.T) {
	eps, tbls := startCluster(t, 3)
	r := dialRouter(t, eps)
	keys, value := ownedKeys(t, r, 4)
	batch := spreadBatch(keys)

	// Another router moves all of node 1's range to node 2 behind r's back.
	stale := r.Map()
	moved := -1
	for i, sp := range stale.Splits {
		if sp.Node == 1 {
			if moved >= 0 {
				t.Fatalf("node 1 owns more than one split of %+v", stale.Splits)
			}
			moved = i
		}
	}
	if _, err := dialRouter(t, eps).MoveRange(splitRange(stale, moved), 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != stale.Epoch {
		t.Fatalf("r learned of the cutover by itself: epoch %d", r.Epoch())
	}

	counters := func() *stats.Snapshot {
		snap := stats.NewSnapshot()
		r.CollectInto(snap)
		return snap
	}
	var served [3]uint64
	for i, tbl := range tbls {
		served[i] = tbl.Stats().Lookups
	}
	before := counters()
	results := make([]flowserve.Result, len(batch))
	if hits := r.LookupMany(batch, results); hits != len(batch) {
		t.Fatalf("%d hits of %d", hits, len(batch))
	}
	for i, k := range batch {
		if want := (flowserve.Result{Value: value[string(k)], OK: true}); results[i] != want {
			t.Errorf("results[%d] = %+v, want %+v", i, results[i], want)
		}
	}
	after := counters()
	for name, want := range map[string]uint64{
		"flowcluster.batches":             1,
		"flowcluster.subbatches":          4, // three in round one, node 2 again in round two
		"flowcluster.redirects":           1,
		"flowcluster.map_refreshes":       1,
		"flowcluster.errors":              0,
		"flowcluster.redirects_exhausted": 0,
		"flowwire.client.errors":          0,
	} {
		if got := after.Counter(name) - before.Counter(name); got != want {
			t.Errorf("%s advanced by %d, want %d", name, got, want)
		}
	}
	// Node 0 probed its four keys once; node 1 rejected its frame whole;
	// node 2 probed its own four in round one and node 1's four in round two.
	for i, want := range [3]uint64{4, 0, 8} {
		if got := tbls[i].Stats().Lookups - served[i]; got != want {
			t.Errorf("node %d probed %d keys, want %d", i, got, want)
		}
	}
	if r.Epoch() != stale.Epoch+1 {
		t.Errorf("epoch after the redirect = %d, want %d", r.Epoch(), stale.Epoch+1)
	}
}

// spreadBatch returns ownedKeys' keys as one batch, interleaved so that
// neighbouring keys have different owners.
func spreadBatch(owned [][][]byte) [][]byte {
	var batch [][]byte
	for j := range owned[0] {
		for _, keys := range owned {
			batch = append(batch, keys[j])
		}
	}
	return batch
}

// TestRouterSteadyStateAllocs is the routing allocation gate: on the
// no-redirect path a Lookup or an Update of a resident key, a LookupMany of
// resident keys spread over all three nodes, a duplicate Insert and a Delete
// of an absent key cost no heap allocation anywhere in the process — router,
// per-node clients and the in-process servers behind them. The two failing
// writes pin that telling a typed error from a redirect is free.
func TestRouterSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eps, _ := startCluster(t, 3)
	r := dialRouter(t, eps)
	keys, _ := ownedKeys(t, r, 5)
	batch := spreadBatch(keys)
	results := make([]flowserve.Result, len(batch))
	subBatches := r.c.subBatches.Load()
	ops := []struct {
		name string
		op   func(key []byte)
	}{
		{"Lookup", func(key []byte) {
			if _, ok := r.Lookup(key); !ok {
				t.Fatal("resident key missed")
			}
		}},
		{"Update", func(key []byte) {
			if !r.Update(key, 5) {
				t.Fatal("resident key not updated")
			}
		}},
		{"LookupMany", func([]byte) {
			if hits := r.LookupMany(batch, results); hits != len(batch) {
				t.Fatalf("LookupMany of %d resident keys = %d hits", len(batch), hits)
			}
		}},
		{"Insert (duplicate)", func(key []byte) {
			if err := r.Insert(key, 5); err != flowserve.ErrKeyExists {
				t.Fatalf("duplicate Insert = %v", err)
			}
		}},
		{"Delete (absent)", func(key []byte) { r.Delete(tkey(1 << 40)) }},
	}
	for _, o := range ops {
		i := 0
		run := func() { o.op(keys[i%len(keys)][0]); i++ }
		for warm := 0; warm < 64; warm++ {
			run()
		}
		allocs := testing.AllocsPerRun(300, run)
		t.Logf("Router.%s: %.2f allocs/op", o.name, allocs)
		if allocs != 0 {
			t.Errorf("Router.%s allocates %.2f times per op on the no-redirect path, want 0", o.name, allocs)
		}
	}
	if errs := r.c.errors.Load(); errs != 0 {
		t.Fatalf("router errors = %d", errs)
	}
	// 64 warm-up calls, AllocsPerRun's own warm-up call and its 300 runs: one
	// sub-batch per node for each LookupMany — the gated batch really did
	// reach all three — and one for each Lookup, a one-key LookupMany.
	if got := r.c.subBatches.Load() - subBatches; got != 4*365 {
		t.Fatalf("Lookup and LookupMany issued %d sub-batches, want %d", got, 4*365)
	}
}

// TestRouterLookupManyHandsNothingOff pins that the fan-out collects from the
// caller's goroutine: it reads each node's connection itself, so no reply of a
// 15-key batch spread over three nodes crosses goroutines on any node's
// client.
func TestRouterLookupManyHandsNothingOff(t *testing.T) {
	eps, _ := startCluster(t, 3)
	r := dialRouter(t, eps)
	owned, _ := ownedKeys(t, r, 5)
	batch := spreadBatch(owned)
	results := make([]flowserve.Result, len(batch))
	for i := 0; i < 200; i++ {
		if hits := r.LookupMany(batch, results); hits != len(batch) {
			t.Fatalf("LookupMany of %d resident keys = %d hits", len(batch), hits)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for ep, cl := range r.clients {
		snap := stats.NewSnapshot()
		cl.CollectInto(snap)
		for _, name := range snap.Names() {
			if v := snap.Counter(name); v != 0 {
				t.Errorf("node %s client counter %s = %d, want 0", ep, name, v)
			}
		}
	}
}

// BenchmarkRouterLookupMany is a 15-key batch spread over an in-process
// 3-node cluster on tcp loopback; run with -benchmem for the end-to-end
// router+clients+servers allocs/op.
func BenchmarkRouterLookupMany(b *testing.B) {
	eps, _ := startCluster(b, 3)
	r := dialRouter(b, eps)
	owned, _ := ownedKeys(b, r, 5)
	batch := spreadBatch(owned)
	results := make([]flowserve.Result, len(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := r.LookupMany(batch, results); hits != len(batch) {
			b.Fatalf("hits = %d", hits)
		}
	}
	if errs := r.c.errors.Load(); errs != 0 {
		b.Fatalf("router errors = %d", errs)
	}
}

// migApplyCutter is a listener whose connections close the moment a
// MIG_APPLY frame starts to arrive, before the server reads any of it: the
// gaining node of a migration dies mid-stream.
type migApplyCutter struct{ net.Listener }

func (l migApplyCutter) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: nc}, nil
}

// cutConn walks the frames of the stream it reads: hdr collects the next
// frame's length prefix, version and op, skip counts the bytes left of the
// current frame.
type cutConn struct {
	net.Conn
	hdr  []byte
	skip int
}

func (c *cutConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for _, b := range p[:n] {
		if c.skip > 0 {
			c.skip--
			continue
		}
		if c.hdr = append(c.hdr, b); len(c.hdr) < 6 {
			continue
		}
		if flowwire.Op(c.hdr[5]) == flowwire.OpMigApply {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
		c.skip = int(binary.LittleEndian.Uint32(c.hdr)) - 2
		c.hdr = c.hdr[:0]
	}
	return n, err
}

// TestMoveRangeAbortsWhenTheGainingNodeDies runs the migration abort: the
// gaining node hangs up on the first MIG_APPLY, so the losing node's sender
// fails and disarms the migration. MoveRange must fail, the losing node must
// count one failed migration, the range must stay where it was at the old
// epoch on every node, and no key may be lost.
func TestMoveRangeAbortsWhenTheGainingNodeDies(t *testing.T) {
	eps, _, srvs := startClusterServers(t, 2, func(ln net.Listener) net.Listener { return migApplyCutter{ln} })
	r := dialRouter(t, eps)
	oracle := make(map[uint64]uint64)
	for i := uint64(0); i < 500; i++ {
		if err := r.Insert(tkey(i), i+1); err != nil {
			t.Fatal(err)
		}
		oracle[i] = i + 1
	}
	m := r.Map()
	rg := splitRange(m, 0)
	src, _ := m.RangeOwner(rg)
	if _, err := r.MoveRange(rg, 1-src, 10*time.Second); err == nil {
		t.Fatal("MoveRange succeeded with the gaining node refusing every MIG_APPLY")
	}

	counter := func(node int, name string) uint64 {
		snap := stats.NewSnapshot()
		srvs[node].CollectInto(snap)
		return snap.Counter(name)
	}
	for deadline := time.Now().Add(10 * time.Second); counter(src, "flowwire.cluster.migs_failed") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the losing node never counted the failed migration")
		}
	}
	if got := counter(src, "flowwire.cluster.migs_failed"); got != 1 {
		t.Fatalf("migs_failed = %d, want 1", got)
	}
	for node := range eps {
		if done, epoch := counter(node, "flowwire.cluster.migs_done"), counter(node, "flowwire.cluster.epoch"); done != 0 || epoch != 1 {
			t.Fatalf("node %d: migs_done %d, epoch %d after the abort, want 0 and 1", node, done, epoch)
		}
		r.mu.Lock()
		cl := r.clients[eps[node]]
		r.mu.Unlock()
		nm, err := cl.FetchShardMap()
		if err != nil {
			t.Fatal(err)
		}
		if owner, ok := nm.RangeOwner(rg); !ok || owner != src || nm.Epoch != 1 {
			t.Fatalf("node %d's map gives %s to node %d (whole: %v) at epoch %d, want node %d at 1", node, rg, owner, ok, nm.Epoch, src)
		}
	}

	// The disarmed range takes writes again, and every key reads back.
	for i := uint64(0); i < 500; i += 5 {
		if !r.Update(tkey(i), i+1000) {
			t.Fatalf("Update(%d) after the abort missed", i)
		}
		oracle[i] = i + 1000
	}
	for i, want := range oracle {
		if v, ok := r.Lookup(tkey(i)); !ok || v != want {
			t.Fatalf("Lookup(%d) = %d,%v after the abort, want %d", i, v, ok, want)
		}
	}
	if errs := r.c.errors.Load(); errs != 0 {
		t.Fatalf("router errors = %d", errs)
	}
}
