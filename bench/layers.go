package main

// layerMetrics fills in the per-layer metrics of a traced serving run from the
// probes taken before and after the measured windows: counter deltas
// (CollectInto — nothing inside the program is edited), process totals, and
// the load generator's own cost.
func (ws servingSpec) layerMetrics(res *runResult, e *env, readers []*reader, mv *mover,
	before, after probe, measured float64, lookupsPerS []float64) {
	proc0, proc1 := before.proc, after.proc
	delta := func(name string) float64 { return float64(after.snap.Counter(name) - before.snap.Counter(name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	var lookups, calls, callNs, restNs float64
	for _, c := range readers {
		for _, n := range c.lookups {
			lookups += float64(n)
		}
		calls += float64(len(c.lat))
		callNs += float64(c.callNs)
		restNs += float64(c.restNs)
	}

	tl := delta("flowserve.lookups")
	res.set("flowserve.hit_ratio", ratio(delta("flowserve.hits"), tl))
	res.set("flowserve.retries_per_mlookup", ratio(delta("flowserve.lookup.retries"), tl)*1e6)
	res.set("flowserve.lock_fallbacks_per_mlookup", ratio(delta("flowserve.lookup.lock_fallbacks"), tl)*1e6)
	res.set("flowserve.displacements_per_insert", ratio(delta("flowserve.displacements"), delta("flowserve.inserts")))
	res.set("flowserve.keys_per_batch_call", ratio(delta("flowserve.batch.keys"), delta("flowserve.batch.calls")))

	frames := delta("flowwire.frames.accepted")
	res.set("flowwire.coalesce.frames_per_call", ratio(delta("flowwire.coalesce.frames"), delta("flowwire.coalesce.calls")))
	res.set("flowwire.coalesce.keys_per_call", ratio(delta("flowwire.coalesce.keys"), delta("flowwire.coalesce.calls")))
	res.set("flowwire.frames_per_s", frames/measured)
	res.set("flowwire.client.errors", delta("flowwire.client.errors"))
	res.set("flowwire.client.timeouts", delta("flowwire.client.timeouts"))
	res.set("flowwire.client.late_replies", delta("flowwire.client.late_replies"))
	res.set("flowwire.shm.doorbells_per_kframe", ratio(float64(after.doorbells-before.doorbells), frames)*1e3)
	res.set("flowwire.shm.parks_per_kframe", ratio(float64(after.parks-before.parks), frames)*1e3)

	res.set("flowcluster.subbatches_per_batch", ratio(delta("flowcluster.subbatches"), delta("flowcluster.batches")))
	res.set("flowcluster.redirects_per_mlookup", ratio(delta("flowcluster.redirects"), lookups)*1e6)
	res.set("flowcluster.map_refreshes", delta("flowcluster.map_refreshes"))
	res.set("flowcluster.redirects_exhausted", delta("flowcluster.redirects_exhausted"))
	if mv != nil && len(mv.durs) > 0 {
		var total float64
		for _, d := range mv.durs {
			total += d
		}
		res.set("flowcluster.move_range_s", median(mv.durs))
		res.set("flowcluster.mig.records_per_s", float64(mv.records)/total)
	}

	res.set("proc.cpu_us_per_lookup", ratio(float64((proc1.cpu-proc0.cpu).Microseconds()), lookups))
	res.set("proc.allocs_per_call", ratio(float64(proc1.mallocs-proc0.mallocs), calls))
	res.set("proc.bytes_per_call", ratio(float64(proc1.allocated-proc0.allocated), calls))
	res.set("proc.gc_pause_ms", float64((proc1.gcPause-proc0.gcPause).Microseconds())/1e3)
	res.set("proc.rss_peak_mb", proc1.rssPeakMB)

	res.set("loadgen.keygen_ns_per_key", e.keygenNs)
	res.set("loadgen.verify_ns_per_key", ratio(restNs, lookups))
	res.set("loadgen.self_share", ratio(restNs, callNs+restNs))
	// The first half of the windows ran untraced and the second half with every
	// call recorded, inside this one run.
	untraced, traced := quantile(lookupsPerS[:windows/2], readRank), quantile(lookupsPerS[windows/2:], readRank)
	res.set("loadgen.trace_overhead_share", 1-ratio(traced, untraced))
}
