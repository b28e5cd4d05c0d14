package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"costsense/internal/serve"
)

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// blockRates splits the timed phase at the moments its blocks of jobs
// complete and returns each stretch's jobs and simulated events per
// second. Their medians are the throughput figures: a burst of CPU
// stolen by a neighbour on a shared host slows a few stretches, not
// the median. A block that completes no later than the one before it
// is merged into the next stretch.
func blockRates(recs []*jobRecord, block int, start time.Time, jobEvents map[int]int64) (jobs, events []float64) {
	done := map[int]time.Time{}
	count := map[int]int{}
	ev := map[int]int64{}
	var blocks []int
	for _, r := range recs {
		b := r.index / block
		if _, seen := count[b]; !seen {
			blocks = append(blocks, b)
		}
		count[b]++
		if r.fetchedAt.After(done[b]) {
			done[b] = r.fetchedAt
		}
		ev[b] += jobEvents[r.index]
	}
	sort.Ints(blocks)
	prev := start
	var n int
	var e int64
	for _, b := range blocks {
		n += count[b]
		e += ev[b]
		if d := done[b].Sub(prev).Seconds(); d > 0 {
			jobs = append(jobs, float64(n)/d)
			events = append(events, float64(e)/d)
			prev, n, e = done[b], 0, 0
		}
	}
	return jobs, events
}

// sumEvents maps each job index to its result's aggregate.sum_events.
func sumEvents(results map[int]*serve.Result) map[int]int64 {
	ev := make(map[int]int64, len(results))
	for i, res := range results {
		ev[i] = res.Aggregate.SumEvents
	}
	return ev
}

// endToEnd computes the metrics a user of the service sees, from the
// untraced timed phase.
func endToEnd(recs []*jobRecord, start time.Time, block int, events map[int]int64, failed, attempted int,
	setups []float64, rssMB float64, restarts []float64) []metric {
	var lat, reread []float64
	var ok []*jobRecord
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		ok = append(ok, r)
		lat = append(lat, ms(r.latency()))
		if r.rereadOf >= 0 {
			reread = append(reread, ms(r.rereadDur))
		}
	}
	jobRates, eventRates := blockRates(ok, block, start, events)
	return []metric{
		{"setup_s", "s", percentile(setups, 50), len(setups), true},
		{"jobs_per_s", "1/s", percentile(jobRates, 50), len(lat), true},
		{"latency_p50_ms", "ms", percentile(lat, 50), len(lat), true},
		{"latency_p90_ms", "ms", percentile(lat, 90), len(lat), true},
		{"reread_p50_ms", "ms", percentile(reread, 50), len(reread), true},
		// On sweep most re-reads take well under a millisecond and the
		// tail is whichever few waited behind the next job's trials for
		// a CPU; its p90 moved between 1 and 20 ms from run to run, so it
		// is printed but carries no bound.
		{"reread_p90_ms", "ms", percentile(reread, 90), len(reread), false},
		{"sim_events_per_s", "1/s", percentile(eventRates, 50), len(lat), true},
		// error_rate is 0 on a correct commit, so it stays out of the
		// result line's metrics; failed/attempted carry it there.
		{"error_rate", "ratio", ratio(float64(failed), float64(attempted)), attempted, false},
		{"peak_rss_mb", "MB", rssMB, 1, true},
		{"restart_s", "s", slices.Min(append(restarts, math.Inf(1))), len(restarts), true},
	}
}

// statusTimes parses a terminal status's lifecycle stamps.
func statusTimes(st serve.JobStatus) (submitted, started, finished time.Time, ok bool) {
	var err1, err2, err3 error
	submitted, err1 = time.Parse(time.RFC3339Nano, st.SubmittedAt)
	started, err2 = time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, err3 = time.Parse(time.RFC3339Nano, st.FinishedAt)
	return submitted, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// layerMetrics computes the per-layer metrics of a traced run. HTTP and
// lifecycle figures come from the traced half of the timed phase;
// graph, cache, sim, reliable, obs, harness and encoding figures from
// the replay; result-derived ratios from every timed job.
func layerMetrics(tr *tracer, plain []*jobRecord, plainWall time.Duration, traced []*jobRecord, tracedWall time.Duration,
	results map[int]*serve.Result, jobs *jobList, journalGrowth int64, replayed int) []metric {
	all := append(append([]*jobRecord(nil), plain...), traced...)
	byIndex := map[int]*jobRecord{}
	for _, r := range all {
		byIndex[r.index] = r
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	perEvent := func(name string) (float64, int) {
		d, events, n := tr.totals(name)
		return ratio(float64(d), float64(events)), n
	}
	n := func(name string) int { return len(tr.named(name)) }

	// Cache, duplicate work, retransmissions and result sizes over every
	// timed job.
	var hits, lookups int
	var events, dupEvents, trials int64
	var retx, proto int64
	var resultBytes []float64
	for _, r := range all {
		if st := r.status.SubstrateCached; st != nil {
			lookups++
			if *st {
				hits++
			}
		}
		res := results[r.index]
		if res == nil {
			continue
		}
		resultBytes = append(resultBytes, float64(r.size))
		events += res.Aggregate.SumEvents
		trials += int64(res.Aggregate.Trials)
		if jobs.first(r.index) != r.index {
			dupEvents += res.Aggregate.SumEvents
		}
		if res.Spec.Faults != nil {
			for _, row := range res.Trials {
				for _, c := range row.ByClass {
					switch c.Class {
					case "retx":
						retx += c.Messages
					case "proto":
						proto += c.Messages
					}
				}
			}
		}
	}

	// Lifecycle stamps and HTTP spans of the traced half.
	buildMS := tr.meanMS("graph.GraphSpec.Build") + tr.meanMS("graph.MSTWeight")
	var wait, runMS, lag []float64
	for _, r := range traced {
		sub, start, fin, ok := statusTimes(r.status)
		if r.err != nil || !ok {
			continue
		}
		w := ms(start.Sub(sub))
		if c := r.status.SubstrateCached; c != nil && !*c {
			// started_at is stamped after the substrate build; the
			// replay's graph-layer time attributes that part.
			w -= buildMS
		}
		wait = append(wait, w)
		runMS = append(runMS, ms(fin.Sub(start)))
		lag = append(lag, ms(r.terminalAt.Sub(fin)))
	}

	// Sharded twins against their serial runs, over every timed job.
	runTime := map[int]time.Duration{}
	for _, r := range all {
		if _, start, fin, ok := statusTimes(r.status); ok && r.err == nil {
			runTime[r.index] = fin.Sub(start)
		}
	}
	var shardedRun, serialRun time.Duration
	var twins int
	for _, r := range all {
		sharded, ok1 := runTime[r.index]
		serial, ok2 := runTime[r.index-1]
		if ok1 && ok2 && isTwin(r, byIndex[r.index-1]) {
			shardedRun += sharded
			serialRun += serial
			twins++
		}
	}

	// Harness: busy time against the workers' available time.
	var busy, avail, sweepWall time.Duration
	var harnessTrials int
	for _, h := range tr.named("harness.RunIndexedPooled") {
		for _, b := range tr.named("harness.busy") {
			if b.Parent == h.ID {
				busy += time.Duration(b.Count)
			}
		}
		t := 0
		for _, c := range tr.named("trial") {
			if c.Parent == h.ID {
				t++
			}
		}
		avail += time.Duration(min(runtime.GOMAXPROCS(0), t)) * h.dur()
		sweepWall += h.dur()
		harnessTrials += t
	}

	nsPerEvent, nPooled := perEvent("sim.run.pooled")
	nsSharded, nSharded := perEvent("sim.run.pooled.sharded")
	observed, _, _ := tr.totals("sim.run.observed.fresh")
	unobserved, _, _ := tr.totals("sim.run.fresh")
	_, exportBytes, nExport := tr.totals("obs.Metrics.WriteJSON")
	plainRate := float64(len(plain)) / plainWall.Seconds()
	tracedRate := float64(len(traced)) / tracedWall.Seconds()

	return []metric{
		{"graph.build_ms", "ms", tr.meanMS("graph.GraphSpec.Build"), n("graph.GraphSpec.Build"), true},
		{"graph.mst_weight_ms", "ms", tr.meanMS("graph.MSTWeight"), n("graph.MSTWeight"), true},
		{"serve.cache.hit_ratio", "ratio", ratio(float64(hits), float64(lookups)), lookups, true},
		{"serve.cache.verify_ms", "ms", tr.meanMS("serve.Substrate.Verify"), n("serve.Substrate.Verify"), true},
		{"sim.ns_per_event", "ns", nsPerEvent, nPooled, true},
		{"sim.events_per_trial", "count", ratio(float64(events), float64(trials)), int(trials), true},
		{"sim.network_build_ms", "ms", tr.meanMS("sim.NewNetwork.fresh"), n("sim.NewNetwork.fresh"), true},
		{"sim.reset_ms", "ms", tr.meanMS("sim.NewNetwork.reset"), n("sim.NewNetwork.reset"), true},
		{"sim.sharded_ns_per_event", "ns", nsSharded, nSharded, true},
		{"reliable.retx_ratio", "ratio", ratio(float64(retx), float64(proto)), int(proto), true},
		{"obs.metrics_overhead_ratio", "ratio", ratio(float64(observed), float64(unobserved)), n("sim.run.fresh"), true},
		{"obs.export_ms", "ms", tr.meanMS("obs.Metrics.WriteJSON"), nExport, true},
		{"obs.export_bytes", "bytes", ratio(float64(exportBytes), float64(nExport)), nExport, true},
		{"harness.worker_busy_ratio", "ratio", ratio(float64(busy), float64(avail)), replayed, true},
		{"harness.trials_per_s", "1/s", ratio(float64(harnessTrials), sweepWall.Seconds()), harnessTrials, true},
		{"serve.submit_ms", "ms", tr.meanMS("http.submit"), n("http.submit"), true},
		{"serve.queue_wait_ms", "ms", mean(wait), len(wait), true},
		{"serve.run_ms", "ms", mean(runMS), len(runMS), true},
		{"serve.encode_ms", "ms", tr.meanMS("json.MarshalIndent"), n("json.MarshalIndent"), true},
		{"serve.result_bytes", "bytes", mean(resultBytes), len(resultBytes), true},
		{"serve.journal_bytes_per_job", "bytes", ratio(float64(journalGrowth), float64(len(all))), len(all), true},
		{"serve.stream_lag_ms", "ms", mean(lag), len(lag), true},
		{"serve.fetch_ms", "ms", tr.meanMS("http.fetch"), n("http.fetch"), true},
		{"serve.sharded_run_ratio", "ratio", ratio(float64(shardedRun), float64(serialRun)), twins, true},
		{"serve.dup_events_ratio", "ratio", ratio(float64(dupEvents), float64(events)), len(resultBytes), true},
		{"trace.overhead_ratio", "ratio", ratio(tracedRate, plainRate), len(traced), true},
	}
}
