package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"costsense/internal/basic"
	"costsense/internal/connect"
	"costsense/internal/graph"
	"costsense/internal/harness"
	"costsense/internal/mst"
	"costsense/internal/obs"
	"costsense/internal/reliable"
	"costsense/internal/serve"
	"costsense/internal/sim"
)

// replayJob re-executes a served spec by calling each layer's public
// functions in the order the server's runJob and runSpec call them, and
// returns the result bytes the server must have served. Every
// fault-free trial's answer is held to the centralized oracle on the
// way. The substrate comes from the server's own cache, as a job's
// does; the graph is also rebuilt from its spec to time the graph
// layer and to check 𝓥 and 𝓔 independently.
//
// With engine set (traced runs only), trial 0 is run four more times
// to split engine time into network build, Reset, observer overhead
// and the sharded engine's per-event cost.
func replayJob(tr *tracer, job int, spec serve.Spec, cache *serve.Cache, engine bool) ([]byte, error) {
	root := tr.begin("replay", job, 0)
	defer tr.end(root)
	step := func(name string, f func()) {
		sp := tr.begin(name, job, root)
		f()
		tr.end(sp)
	}

	var err error
	step("serve.Spec.Normalize", func() { err = spec.Normalize() })
	if err != nil {
		return nil, err
	}
	var key string
	step("serve.Spec.SubstrateKey", func() { key = spec.SubstrateKey() })
	var sub *serve.Substrate
	hit := false
	step("serve.Cache.GetOrBuild", func() {
		// The build function cannot run: substrates are built only
		// inside the server. A miss means the job's substrate was
		// evicted, and the replay stops there.
		sub, hit = cache.GetOrBuild(key, func() *serve.Substrate { return new(serve.Substrate) })
	})
	if !hit {
		return nil, fmt.Errorf("replay: substrate %s was evicted before the replay", key[:12])
	}
	step("serve.Substrate.Verify", sub.Verify)

	var own *graph.Graph
	var mstW int64
	step("graph.GraphSpec.Build", func() { own = spec.Graph.Build() })
	step("graph.MSTWeight", func() { mstW = graph.MSTWeight(own) })
	g := sub.Graph()
	if own.N() != g.N() || own.M() != g.M() || own.TotalWeight() != sub.TotalWeight() {
		return nil, fmt.Errorf("replay: rebuilt graph (n=%d m=%d 𝓔=%d) differs from the cached substrate (n=%d m=%d 𝓔=%d)",
			own.N(), own.M(), own.TotalWeight(), g.N(), g.M(), sub.TotalWeight())
	}
	if mstW != sub.MSTWeight() {
		return nil, fmt.Errorf("replay: cached 𝓥=%d, graph.MSTWeight gives %d", sub.MSTWeight(), mstW)
	}
	if spec.Shards > 1 {
		var shardOf []int32
		step("sim.ShardAssignment", func() { shardOf = sim.ShardAssignment(own, spec.Shards) })
		if !slices.Equal(shardOf, sub.ShardAssignment()) {
			return nil, fmt.Errorf("replay: cached shard assignment differs from sim.ShardAssignment")
		}
	}

	oracle := newOracle(spec, g, mstW)
	delay := delayModel(spec.Delay)
	var plan sim.FaultPlan
	if f := spec.Faults; f != nil {
		step("sim.RandomFaultPlan", func() {
			plan = sim.RandomFaultPlan(g, f.Seed, f.Drop, f.Dup, f.Crashes, f.Downs, f.Horizon)
		})
	}
	// trialOpts builds trial i's options as runSpec does; shardOf
	// selects the engine (nil runs the serial one).
	trialOpts := func(pool *sim.Pool, i, parent int, shardOf []int32) []sim.Option {
		seed := spec.Seed + int64(i)
		opts := []sim.Option{sim.WithDelay(delay), sim.WithSeed(seed), sim.WithPool(pool)}
		if spec.EventLimit > 0 {
			opts = append(opts, sim.WithEventLimit(spec.EventLimit))
		}
		if shardOf != nil {
			opts = append(opts, sim.WithShardAssignment(shardOf))
		}
		if spec.Faults != nil {
			sp := tr.begin("reliable.Install", job, parent)
			rel, _ := reliable.Install(reliable.Config{})
			tr.end(sp)
			opts = append(opts, sim.WithFaults(plan), rel)
		}
		return opts
	}

	var metrics *obs.Metrics
	step("obs.NewMetrics", func() { metrics = obs.NewMetrics(g) })
	busy := &busySink{}
	hsp := tr.begin("harness.RunIndexedPooled", job, root)
	rows, err := harness.RunIndexedPooled(context.Background(), spec.Trials,
		func() *sim.Pool {
			sp := tr.begin("sim.NewPool", job, hsp)
			defer tr.end(sp)
			return sim.NewPool(2)
		},
		func(_ context.Context, pool *sim.Pool, i int) (serve.TrialRow, error) {
			tsp := tr.begin("trial", job, hsp)
			defer tr.end(tsp)
			opts := trialOpts(pool, i, tsp, sub.ShardAssignment())
			if i == 0 {
				opts = append(opts, sim.WithObserver(metrics))
			}
			sp := tr.begin("protocol.Run", job, tsp)
			st, err := runProtocol(spec.Experiment, g, graph.NodeID(spec.Root), opts, oracle)
			if err != nil {
				tr.end(sp)
				return serve.TrialRow{}, fmt.Errorf("trial %d (seed %d): %w", i, spec.Seed+int64(i), err)
			}
			tr.endCount(sp, st.Events)
			return trialRow(i, spec.Seed+int64(i), g, st), nil
		}, busy)
	tr.end(hsp)
	if err != nil {
		return nil, err
	}
	busy.report(tr, job, hsp)

	agg := serve.Aggregate{Trials: len(rows), AllSpan: true}
	for _, r := range rows {
		agg.SumMessages += r.Messages
		agg.SumComm += r.Comm
		agg.SumEvents += r.Events
		agg.MaxTime = max(agg.MaxTime, r.Time)
		agg.AllSpan = agg.AllSpan && r.Spans
	}
	var metricsJSON bytes.Buffer
	sp := tr.begin("obs.Metrics.WriteJSON", job, root)
	err = metrics.WriteJSON(&metricsJSON)
	tr.endCount(sp, int64(metricsJSON.Len()))
	if err != nil {
		return nil, fmt.Errorf("replay: exporting trial-0 metrics: %w", err)
	}
	res := &serve.Result{
		Spec: spec,
		Substrate: serve.SubstrateInfo{
			Key: key, N: g.N(), M: g.M(), TotalWeight: sub.TotalWeight(), MSTWeight: sub.MSTWeight(),
		},
		Aggregate: agg,
		Trials:    rows,
		Metrics:   json.RawMessage(metricsJSON.Bytes()),
	}
	sp = tr.begin("json.MarshalIndent", job, root)
	b, err := json.MarshalIndent(res, "", "  ")
	tr.endCount(sp, int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("replay: encoding result: %w", err)
	}
	if engine {
		if err := engineRuns(tr, job, root, spec, g, sub.ShardAssignment(), trialOpts); err != nil {
			return nil, err
		}
	}
	return append(b, '\n'), nil
}

// engineRuns repeats trial 0 outside the harness to attribute engine
// time: an observed and an unobserved run on fresh networks of the
// spec's own engine, then a run on the pooled (Reset) network, and a
// fresh and a pooled run on the other engine (serial or two shards),
// then network construction versus Reset on their own.
func engineRuns(tr *tracer, job, root int, spec serve.Spec, g *graph.Graph, own []int32,
	trialOpts func(*sim.Pool, int, int, []int32) []sim.Option) error {
	run := func(name string, pool *sim.Pool, shardOf []int32, extra ...sim.Option) error {
		sp := tr.begin(name, job, root)
		opts := append(trialOpts(pool, 0, sp, shardOf), extra...)
		st, err := runProtocol(spec.Experiment, g, graph.NodeID(spec.Root), opts, nil)
		if err != nil {
			tr.end(sp)
			return fmt.Errorf("replay %s: %w", name, err)
		}
		tr.endCount(sp, st.Events)
		return nil
	}
	pooledName := func(shardOf []int32) string {
		if shardOf != nil {
			return "sim.run.pooled.sharded"
		}
		return "sim.run.pooled"
	}
	other := sim.ShardAssignment(g, 2) // the server's partitioner, as for shards: 2
	if own != nil {
		other = nil
	}
	if err := run("sim.run.observed.fresh", sim.NewPool(2), own, sim.WithObserver(obs.NewMetrics(g))); err != nil {
		return err
	}
	pool, otherPool := sim.NewPool(2), sim.NewPool(2)
	for _, r := range []struct {
		name    string
		pool    *sim.Pool
		shardOf []int32
	}{
		{"sim.run.fresh", pool, own},
		{pooledName(own), pool, own},
		{"sim.run.fresh.other", otherPool, other},
		{pooledName(other), otherPool, other},
	} {
		if err := run(r.name, r.pool, r.shardOf); err != nil {
			return err
		}
	}

	// Construction versus Reset, with processes that send nothing.
	procs := make([]sim.Process, g.N())
	for v := range procs {
		procs[v] = idle{}
	}
	npool := sim.NewPool(2)
	for _, name := range []string{"sim.NewNetwork.fresh", "sim.NewNetwork.reset"} {
		sp := tr.begin(name, job, root)
		n, err := sim.NewNetwork(g, procs, sim.WithPool(npool), sim.WithDelay(delayModel(spec.Delay)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		if _, err := n.Run(); err != nil { // parks the network in npool
			return fmt.Errorf("replay %s: %w", name, err)
		}
	}
	return nil
}

// idle is a process that sends nothing.
type idle struct{}

func (idle) Init(sim.Context)                              {}
func (idle) Handle(sim.Context, graph.NodeID, sim.Message) {}

// busySink accumulates per-trial worker time for the harness layer's
// busy ratio.
type busySink struct {
	mu      sync.Mutex
	started map[int]time.Time
	busy    time.Duration
}

func (b *busySink) TrialStart(i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started == nil {
		b.started = map[int]time.Time{}
	}
	b.started[i] = time.Now()
}

func (b *busySink) TrialDone(i, _, _ int) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.busy += now.Sub(b.started[i])
}

// report records the accumulated busy time as a zero-length span whose
// count is nanoseconds, attached to the harness span.
func (b *busySink) report(tr *tracer, job, parent int) {
	sp := tr.begin("harness.busy", job, parent)
	tr.endCount(sp, int64(b.busy))
}

// delayModel resolves a normalized delay name as the server does.
func delayModel(name string) sim.DelayModel {
	switch name {
	case "unit":
		return sim.DelayUnit{}
	case "uniform":
		return sim.DelayUniform{}
	}
	return sim.DelayMax{}
}

// trialRow flattens a run's Stats the way the server does.
func trialRow(trial int, seed int64, g *graph.Graph, st *sim.Stats) serve.TrialRow {
	row := serve.TrialRow{
		Trial: trial, Seed: seed,
		Messages: st.Messages, Comm: st.Comm, Time: st.FinishTime, Events: st.Events,
		Dropped: st.Dropped, Duplicated: st.Duplicated, DeadLetters: st.DeadLetters, Timers: st.Timers,
		UsedWeight: st.UsedWeight(g), Spans: st.UsedSpans(g),
	}
	classes := make([]string, 0, len(st.ByClass))
	for c := range st.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	row.ByClass = make([]serve.ClassRow, 0, len(classes))
	for _, c := range classes {
		cs := st.ByClass[sim.Class(c)]
		row.ByClass = append(row.ByClass, serve.ClassRow{Class: c, Messages: cs.Messages, Comm: cs.Comm})
	}
	return row
}

// oracle holds the centralized answers a fault-free run must match.
type oracle struct {
	mstW int64
	dist []int64 // sptcentr: Dijkstra distances from the root
}

// newOracle returns nil for faulty specs, whose answers may degrade by
// design.
func newOracle(spec serve.Spec, g *graph.Graph, mstW int64) *oracle {
	if spec.Faults != nil {
		return nil
	}
	o := &oracle{mstW: mstW}
	if spec.Experiment == "sptcentr" {
		o.dist = graph.Dijkstra(g, graph.NodeID(spec.Root)).Dist
	}
	return o
}

// runProtocol dispatches an experiment as the server does and, given an
// oracle, checks the run's answer: MST weight for the MST protocols,
// Dijkstra distances for sptcentr, full reach for flood, dfs and
// conhybrid.
func runProtocol(kind string, g *graph.Graph, root graph.NodeID, opts []sim.Option, o *oracle) (*sim.Stats, error) {
	var st *sim.Stats
	var bad error
	all := func(what string, ok []bool) {
		for v, b := range ok {
			if !b {
				bad = fmt.Errorf("%s: vertex %d not reached", what, v)
				return
			}
		}
	}
	mstCheck := func(what string, w int64) {
		if w != o.mstW {
			bad = fmt.Errorf("%s: tree weight %d, graph.MSTWeight %d", what, w, o.mstW)
		}
	}
	switch kind {
	case "flood":
		r, err := basic.RunFlood(g, root, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Stats
		if o != nil {
			all("flood", r.Reached)
		}
	case "dfs":
		r, err := basic.RunDFS(g, root, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Stats
		if o != nil {
			all("dfs", r.Visited)
		}
	case "mstcentr":
		r, err := basic.RunMSTCentr(g, root, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Stats
		if o != nil {
			t := r.Tree(g, root)
			if !t.Spanning() {
				bad = fmt.Errorf("mstcentr: tree does not span")
			} else {
				mstCheck("mstcentr", t.Weight())
			}
		}
	case "sptcentr":
		r, err := basic.RunSPTCentr(g, root, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Stats
		if o != nil && !slices.Equal(r.Dist, o.dist) {
			bad = fmt.Errorf("sptcentr: distances differ from graph.Dijkstra")
		}
	case "conhybrid":
		r, err := connect.RunCONHybrid(g, root, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Stats
		if o != nil {
			all("conhybrid", r.InComponent)
		}
	case "ghs", "mstfast":
		run := mst.RunGHS
		if kind == "mstfast" {
			run = mst.RunMSTFast
		}
		r, err := run(g, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Stats
		if o != nil {
			mstCheck(kind, r.Weight())
		}
	case "msthybrid":
		r, err := mst.RunMSTHybrid(g, root, opts...)
		if err != nil {
			return nil, err
		}
		st = r.Result.Stats
		if o != nil {
			mstCheck("msthybrid", r.Result.Weight())
		}
	default:
		return nil, fmt.Errorf("unknown experiment %q", kind)
	}
	if bad != nil {
		return nil, fmt.Errorf("oracle: %w", bad)
	}
	return st, nil
}
