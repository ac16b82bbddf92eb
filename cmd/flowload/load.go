package main

import (
	"sync"
	"sync/atomic"
	"time"

	"halo/internal/flowserve"
	"halo/internal/loadgen"
	"halo/internal/stats"
)

// load is one fan-out of worker goroutines, each looping draw → lookup →
// verify (→ churn) over the population through its own loadgen.Caller and
// the shared rw, until ops lookups have been handed out.
type load struct {
	pop     *loadgen.Population
	oracle  *loadgen.Oracle
	workers int
	batch   int
	seed    uint64
	ops     int64

	// With pace set the load is open loop: workers claim batch ticks off a
	// shared fixed-rate schedule (see pacer) and a batch's latency runs from
	// its *intended* send time, so a stalled server is charged the queueing
	// delay instead of quietly slowing the offered load (coordinated
	// omission). Closed loop (nil) measures from the actual send.
	pace *pacer

	// churn > 0: each worker takes one flow out of rw and puts it back per
	// this many lookups.
	churn int
	rw    flowserve.ReadWriter
}

type loadResult struct {
	lookups int64
	elapsed time.Duration
	excused int64 // misses the oracle put down to a churner in flux
	// Per-LookupMany-call latency, ns, at high resolution so the p99.9 tail
	// is within ~0.4% instead of the default ~6%.
	hist *stats.Histogram
}

func newHist() *stats.Histogram { return stats.NewHistogramRes(stats.HighResSubBits) }

// run returns once every worker has claimed past ops, or failed: a result
// the oracle does not account for ends its worker with an error, and the
// first such error is run's.
func (l load) run() (loadResult, error) {
	var (
		claimed atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex // guards res and first
		res     = loadResult{hist: newHist()}
		first   error
	)
	start := time.Now()
	for wi := 0; wi < l.workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			hist := newHist()
			excused, err := l.worker(wi, &claimed, hist)
			mu.Lock()
			defer mu.Unlock()
			res.hist.Merge(hist)
			res.excused += excused
			if first == nil {
				first = err
			}
		}(wi)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.lookups = int64(res.hist.Count()) * int64(l.batch)
	return res, first
}

// worker is one goroutine's loop: claim a batch, draw, time the lookup,
// verify, churn when due.
func (l load) worker(wi int, claimed *atomic.Int64, hist *stats.Histogram) (excused int64, err error) {
	c := l.pop.NewCaller(l.oracle, loadgen.Mix(l.seed, uint64(wi)), l.batch)
	sinceChurn := 0
	for {
		n := claimed.Add(int64(l.batch))
		if n > l.ops {
			return excused, nil
		}
		c.Draw(len(l.pop.Keys))
		var t0 time.Time
		if l.pace != nil {
			t0 = l.pace.wait(n/int64(l.batch) - 1)
		} else {
			t0 = time.Now()
		}
		l.rw.LookupMany(c.Keys, c.Results)
		hist.Observe(uint64(time.Since(t0).Nanoseconds()))
		ex, err := c.Verify()
		if err != nil {
			return excused, err
		}
		excused += int64(ex)
		if sinceChurn += l.batch; l.churn > 0 && sinceChurn >= l.churn {
			sinceChurn = 0
			if err := c.Churn(l.rw); err != nil {
				return excused, err
			}
		}
	}
}
