package flowwire

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// alignedMem returns size bytes backed by []uint64 storage, matching the
// 8-byte alignment an mmap'd segment provides — the ring's atomic cursor
// binding requires it.
func alignedMem(size int) []byte {
	words := make([]uint64, (size+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
}

// testRing builds a standalone ring over aligned memory: 32 control bytes
// (tail, head, cons flag, prod flag — packed; false sharing is a perf
// concern, not a correctness one, so tests don't need the 64-byte strides)
// followed by the data region.
func testRing(dataSize int) *spscRing {
	mem := alignedMem(32 + dataSize)
	r := bindRing(mem, 0, 8, 16, 24, mem[32:])
	return &r
}

func TestCheckRingBytes(t *testing.T) {
	for _, n := range []uint32{64, 128, 1 << 18, 1 << 30} {
		if err := checkRingBytes(n); err != nil {
			t.Errorf("checkRingBytes(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []uint32{0, 1, 32, 63, 65, 100, 1<<18 + 1, 1 << 31} {
		if err := checkRingBytes(n); err == nil {
			t.Errorf("checkRingBytes(%d) accepted a bad size", n)
		}
	}
}

// TestRingFullEmpty pins the boundary accounting: a full ring refuses
// writes, an empty ring refuses reads, and capacity is exactly the data
// size (free-running cursors have no wasted slot).
func TestRingFullEmpty(t *testing.T) {
	r := testRing(64)
	if got := r.writable(); got != 64 {
		t.Fatalf("fresh ring writable = %d, want 64", got)
	}
	if got := r.readable(); got != 0 {
		t.Fatalf("fresh ring readable = %d, want 0", got)
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	if n := r.write(buf); n != 64 {
		t.Fatalf("write to empty ring = %d, want 64", n)
	}
	if n := r.write([]byte{0xff}); n != 0 {
		t.Fatalf("write to full ring = %d, want 0", n)
	}
	out := make([]byte, 64)
	if n := r.read(out); n != 64 || !bytes.Equal(out, buf) {
		t.Fatalf("read = %d bytes %v", n, out)
	}
	if n := r.read(out); n != 0 {
		t.Fatalf("read from empty ring = %d, want 0", n)
	}
}

// TestRingWrapAround drives the cursors far past the data size with
// co-prime chunk lengths so copies straddle the wrap boundary in every
// phase, verifying the byte stream end to end.
func TestRingWrapAround(t *testing.T) {
	const dataSize = 64
	r := testRing(dataSize)
	var seq byte
	chunk := make([]byte, 23) // co-prime with 64: wrap offset cycles
	out := make([]byte, 23)
	var want byte
	for iter := 0; iter < 100; iter++ {
		for i := range chunk {
			chunk[i] = seq
			seq++
		}
		for wrote := 0; wrote < len(chunk); {
			n := r.write(chunk[wrote:])
			if n == 0 {
				t.Fatalf("iter %d: ring full with only %d queued", iter, r.readable())
			}
			wrote += n
		}
		for got := 0; got < len(out); {
			n := r.read(out[got:])
			if n == 0 {
				t.Fatalf("iter %d: ring empty with %d outstanding", iter, len(out)-got)
			}
			got += n
		}
		for _, b := range out {
			if b != want {
				t.Fatalf("iter %d: got byte %d, want %d", iter, b, want)
			}
			want++
		}
	}
	if r.readable() != 0 {
		t.Fatalf("residue after drain: %d", r.readable())
	}
}

// TestRingConcurrentStress runs a real producer/consumer pair over one
// shared ring under the race detector: the detector sees the raw slice
// copies on both sides, so this is a direct check that the cursor
// publish/observe protocol orders the byte accesses.
func TestRingConcurrentStress(t *testing.T) {
	const total = 1 << 20
	r := testRing(256)
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 97)
		var want byte
		got := 0
		for got < total {
			n := r.read(buf[:1+rng.Intn(len(buf)-1)])
			if n == 0 {
				runtime.Gosched() // empty: let the producer run (single-CPU boxes)
			}
			for _, b := range buf[:n] {
				if b != want {
					done <- fmt.Errorf("consumer mismatch at byte %d: got %d, want %d", got, b, want)
					return
				}
				want++
				got++
			}
		}
		done <- nil
	}()
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 131)
	var seq byte
	for sent := 0; sent < total; {
		chunk := buf[:1+rng.Intn(len(buf)-1)]
		if rem := total - sent; len(chunk) > rem {
			chunk = chunk[:rem]
		}
		for i := range chunk {
			chunk[i] = seq
			seq++
		}
		for wrote := 0; wrote < len(chunk); {
			n := r.write(chunk[wrote:])
			if n == 0 {
				runtime.Gosched() // full: let the consumer run
			}
			wrote += n
		}
		sent += len(chunk)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSegmentInitAttach round-trips a segment through the server-side init
// and client-side attach, and checks attach rejects every corrupted header.
func TestSegmentInitAttach(t *testing.T) {
	const ringSize = 128
	mem := alignedMem(segmentSize(ringSize))
	seg, err := initSegment(mem, ringSize)
	if err != nil {
		t.Fatal(err)
	}
	if seg.req.write([]byte("ping")) != 4 {
		t.Fatal("req write")
	}

	peer, err := attachSegment(mem)
	if err != nil {
		t.Fatalf("attachSegment: %v", err)
	}
	out := make([]byte, 8)
	if n := peer.req.read(out); n != 4 || string(out[:4]) != "ping" {
		t.Fatalf("peer read = %q", out[:n])
	}

	corrupt := func(name string, mutate func([]byte)) {
		m := alignedMem(segmentSize(ringSize))
		if _, err := initSegment(m, ringSize); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		if _, err := attachSegment(m); err == nil {
			t.Errorf("attachSegment accepted segment with %s", name)
		}
	}
	corrupt("bad magic", func(m []byte) { u32at(m, offMagic).Store(0xdead) })
	corrupt("bad version", func(m []byte) { u32at(m, offVersion).Store(shmLayoutVer + 1) })
	corrupt("non-power-of-two ring", func(m []byte) { u32at(m, offRingSize).Store(100) })
	corrupt("oversized claim", func(m []byte) { u32at(m, offRingSize).Store(1 << 24) })
	corrupt("undersized claim", func(m []byte) { u32at(m, offRingSize).Store(ringSize / 2) })
	if _, err := attachSegment(alignedMem(100)); err == nil {
		t.Error("attachSegment accepted a sub-header mapping")
	}
	if _, err := initSegment(mem, 2*ringSize); err == nil {
		t.Error("initSegment accepted a mapping shorter than its geometry")
	}
}

// FuzzShmRing streams whole frames through an arbitrarily-sized ring in
// arbitrary chunk splits — frames tear across the wrap boundary and across
// chunk boundaries — then re-decodes them from the drained byte stream. The
// ring must be a perfectly transparent pipe for the codec above it.
func FuzzShmRing(f *testing.F) {
	f.Add(uint8(6), []byte("hello"), []byte{3, 7, 1})
	f.Add(uint8(8), bytes.Repeat([]byte{0xab}, 300), []byte{64, 64, 64})
	f.Add(uint8(6), []byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, sizePow uint8, payload, splits []byte) {
		dataSize := 1 << (6 + int(sizePow)%7) // 64 .. 4096
		if len(payload) > dataSize*4 {
			payload = payload[:dataSize*4]
		}
		r := testRing(dataSize)

		// Three frames carrying slices of the payload, concatenated.
		var in []byte
		for i := 0; i < 3; i++ {
			p := payload[len(payload)*i/3 : len(payload)*(i+1)/3]
			in = AppendFrame(in, &Frame{Op: OpLookupMany, ReqID: uint64(i + 1), Payload: p})
		}

		// Push through the ring: write a fuzz-chosen chunk, drain fully,
		// repeat. Draining keeps the single goroutine from deadlocking on a
		// full ring while still exercising partial writes.
		var out []byte
		drain := make([]byte, dataSize)
		si := 0
		for sent := 0; sent < len(in); {
			chunk := 1
			if len(splits) > 0 {
				chunk = 1 + int(splits[si%len(splits)])
				si++
			}
			if rem := len(in) - sent; chunk > rem {
				chunk = rem
			}
			for wrote := 0; wrote < chunk; {
				n := r.write(in[sent+wrote : sent+chunk])
				wrote += n
				if n == 0 {
					m := r.read(drain)
					if m == 0 {
						t.Fatal("ring both full and empty")
					}
					out = append(out, drain[:m]...)
				}
			}
			sent += chunk
		}
		for {
			n := r.read(drain)
			if n == 0 {
				break
			}
			out = append(out, drain[:n]...)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("ring corrupted the stream: %d in, %d out", len(in), len(out))
		}

		// The drained stream must decode back to the three frames.
		rd := bytes.NewReader(out)
		var fr Frame
		var buf []byte
		var err error
		for i := 0; i < 3; i++ {
			p := payload[len(payload)*i/3 : len(payload)*(i+1)/3]
			buf, err = ReadFrameInto(rd, 0, &fr, buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if fr.ReqID != uint64(i+1) || !bytes.Equal(fr.Payload, p) {
				t.Fatalf("frame %d decoded wrong: reqID %d, %d payload bytes", i, fr.ReqID, len(fr.Payload))
			}
		}
	})
}
