package loadgen

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"halo/internal/flowserve"
	"halo/internal/trafficgen"
)

// served returns a caller whose batch has just been drawn and looked up in a
// table filled with pop; the test then doctors c.Results.
func served(t *testing.T, pop *Population, o *Oracle) (*Caller, *flowserve.Table) {
	t.Helper()
	tbl, err := pop.NewTable(2)
	if err != nil {
		t.Fatal(err)
	}
	c := pop.NewCaller(o, 7, 4)
	c.Draw(len(pop.Keys))
	tbl.LookupMany(c.Keys, c.Results)
	if excused, err := c.Verify(); err != nil || excused != 0 {
		t.Fatalf("clean batch: excused %d, err %v", excused, err)
	}
	return c, tbl
}

func wantVerify(t *testing.T, c *Caller, wantExcused int, wantErr string) {
	t.Helper()
	excused, err := c.Verify()
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("Verify: %v", err)
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("Verify error %v, want one containing %q", err, wantErr)
	case excused != wantExcused:
		t.Fatalf("Verify excused %d, want %d", excused, wantExcused)
	}
}

func TestReadOnlyOracleExcusesNothing(t *testing.T) {
	pop := NewPopulation(64, trafficgen.Uniform, 1)
	c, _ := served(t, pop, NewOracle(pop, false))
	c.Results[2] = flowserve.Result{}
	wantVerify(t, c, 0, "missed")
}

// A miss is excused exactly when the flow's state word shows a writer in
// flux when the batch was drawn, or differs once the lookup is back. The
// population is one flow, so every batch draws it.
func TestOracleExcusesOnlyFluxOrMovedGeneration(t *testing.T) {
	pop := NewPopulation(1, trafficgen.Uniform, 1)
	o := NewOracle(pop, true)
	c, tbl := served(t, pop, o)
	drawAndMiss := func() {
		c.Draw(1)
		tbl.LookupMany(c.Keys, c.Results)
		c.Results[1] = flowserve.Result{}
	}

	drawAndMiss()
	wantVerify(t, c, 0, "missed with no writer in flux")

	// A writer took the flow out and put it back entirely within the call.
	drawAndMiss()
	o.begin(0)
	o.end(0)
	wantVerify(t, c, 1, "")

	// A writer went into flux during the call and is still there…
	drawAndMiss()
	o.begin(0)
	wantVerify(t, c, 1, "")
	// …and when the next batch is drawn.
	drawAndMiss()
	wantVerify(t, c, 1, "")

	// Excused or not, a hit must carry the flow's own value.
	c.Results[1] = flowserve.Result{Value: Value(0) + 1, OK: true}
	wantVerify(t, c, 0, "returned value")

	o.end(0)
	drawAndMiss()
	wantVerify(t, c, 0, "missed with no writer in flux")
}

// With two churners on one flow, the first to finish must not publish the
// flow as settled: the other still has it out.
func TestOverlappingChurnersStayInFlux(t *testing.T) {
	pop := NewPopulation(1, trafficgen.Uniform, 1)
	o := NewOracle(pop, true)
	c, tbl := served(t, pop, o)
	drawAndMiss := func() {
		c.Draw(1)
		tbl.LookupMany(c.Keys, c.Results)
		c.Results[0] = flowserve.Result{}
	}
	o.begin(0) // churner A
	o.begin(0) // churner B
	o.end(0)   // B is done, A is not
	drawAndMiss()
	wantVerify(t, c, 1, "")
	o.end(0)
	drawAndMiss()
	wantVerify(t, c, 0, "missed with no writer in flux")
}

// Real churners overlapping against a real table: a reader must never see a
// miss the oracle does not account for, nor a wrong value. Two flows on one
// shard make every churner collide on every flow; a Zipf population on four
// shards with one churner per reader is the multi-shard serving shape. Run
// with -race.
func TestConcurrentChurnersNeverUnexcused(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		flows                     int
		pop                       trafficgen.Popularity
		shards, readers, churners int
	}{
		{"two flows", 2, trafficgen.Uniform, 1, 1, 2},
		{"zipf 4 shards", 2_000, trafficgen.Zipf, 4, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pop := NewPopulation(tc.flows, tc.pop, 3)
			o := NewOracle(pop, true)
			tbl, err := pop.NewTable(tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			var (
				stop    atomic.Bool
				wg      sync.WaitGroup
				readers sync.WaitGroup
				excused atomic.Int64
			)
			for w := 0; w < tc.churners; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := pop.NewCaller(o, Mix(3, uint64(w)), 1)
					for !stop.Load() {
						if err := c.Churn(tbl); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < tc.readers; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					c := pop.NewCaller(o, 99+uint64(r), 4)
					for n := 0; n < 20000/tc.readers; n++ {
						c.Draw(len(pop.Keys))
						tbl.LookupMany(c.Keys, c.Results)
						ex, err := c.Verify()
						if err != nil {
							t.Errorf("reader %d batch %d: %v", r, n, err)
							return
						}
						excused.Add(int64(ex))
					}
				}(r)
			}
			readers.Wait()
			stop.Store(true)
			wg.Wait()
			t.Logf("%d excused misses", excused.Load())
		})
	}
}

func TestSameSeedReplaysSameBatches(t *testing.T) {
	pop := NewPopulation(500, trafficgen.Zipf, 5)
	o := NewOracle(pop, false)
	a, b := pop.NewCaller(o, 11, 16), pop.NewCaller(o, 11, 16)
	for n := 0; n < 10; n++ {
		a.Draw(100)
		b.Draw(100)
		for j := range a.idx {
			if a.idx[j] != b.idx[j] || a.idx[j] >= 100 {
				t.Fatalf("batch %d key %d: drew %d and %d under limit 100", n, j, a.idx[j], b.idx[j])
			}
		}
	}
}
