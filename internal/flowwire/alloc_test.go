package flowwire

import (
	"bytes"
	"testing"

	"halo/internal/flowserve"
)

// TestFrameCodecSteadyStateAllocs is the framing allocation gate: once
// scratch buffers are warm, a full encode→decode round trip of a LOOKUP_MANY
// exchange performs zero heap allocations. This is the contract the client
// and server hot paths are built on; CI runs this test so a regression
// (a stray make, an interface conversion, an append past capacity estimate)
// fails the build rather than quietly costing GC time at load.
func TestFrameCodecSteadyStateAllocs(t *testing.T) {
	const batch = 64
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = wkey(uint64(i))
	}
	results := make([]flowserve.Result, batch)
	for i := range results {
		results[i] = flowserve.Result{OK: i%2 == 0, Value: uint64(i) * 7}
	}

	// Warm scratch, sized generously so steady state never regrows.
	wbuf := make([]byte, 0, 8<<10)
	payload := make([]byte, 0, 8<<10)
	pbuf := make([]byte, 8<<10)
	keyScratch := make([][]byte, 0, batch)
	resScratch := make([]flowserve.Result, batch)
	rd := bytes.NewReader(nil)
	var f Frame

	allocs := testing.AllocsPerRun(1000, func() {
		// Client request encode: header + payload into one reused buffer.
		payload = appendLookupManyReq(payload[:0], keys, 20)
		wbuf = AppendFrameHeader(wbuf[:0], OpLookupMany, StatusOK, 42, len(payload))
		wbuf = append(wbuf, payload...)

		// Server request decode: payload into reused buf, keys aliasing it.
		rd.Reset(wbuf)
		var err error
		pbuf, err = ReadFrameInto(rd, 0, &f, pbuf)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		keyScratch, st = parseLookupManyReq(f.Payload, 20, keyScratch[:0])
		if st != StatusOK || len(keyScratch) != batch {
			t.Fatalf("parse req: status %d, %d keys", st, len(keyScratch))
		}

		// Server reply encode, again into one reused buffer.
		payload = appendLookupManyReply(payload[:0], results)
		wbuf = AppendFrameHeader(wbuf[:0], OpLookupMany, StatusOK, 42, len(payload))
		wbuf = append(wbuf, payload...)

		// Client reply decode into the caller's results slice.
		rd.Reset(wbuf)
		pbuf, err = ReadFrameInto(rd, 0, &f, pbuf)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := parseLookupManyReply(f.Payload, resScratch, nil); err != nil || n != batch {
			t.Fatalf("parse reply: n=%d err=%v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame codec round trip allocates %.1f times per op, want 0", allocs)
	}
}

// benchLoopbackLookupMany measures the end-to-end serve path (client encode,
// server decode/serve/encode, client decode) over a real transport; run with
// -benchmem to see per-op allocations on the full hot path.
func benchLoopbackLookupMany(b *testing.B, transport string) {
	const batch = 64
	_, tbl, addr := startServerOn(b, transport, flowserve.Config{Shards: 4, Entries: 8192, KeyLen: 20}, Config{})
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = wkey(uint64(i))
		if err := tbl.Insert(keys[i], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	cl := dialTest(b, addr, Options{})
	results := make([]flowserve.Result, batch)
	if hits := cl.LookupMany(keys, results); hits != batch {
		b.Fatalf("warmup hits = %d", hits)
	}
	b.ReportAllocs()
	b.SetBytes(int64(batch * 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := cl.LookupMany(keys, results); hits != batch {
			b.Fatalf("hits = %d", hits)
		}
	}
	if err := cl.Err(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLoopbackLookupManyTCP(b *testing.B)  { benchLoopbackLookupMany(b, TransportTCP) }
func BenchmarkLoopbackLookupManyUnix(b *testing.B) { benchLoopbackLookupMany(b, TransportUnix) }
func BenchmarkLoopbackLookupManyShm(b *testing.B)  { benchLoopbackLookupMany(b, TransportShm) }
