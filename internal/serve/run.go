package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"costsense/internal/basic"
	"costsense/internal/connect"
	"costsense/internal/graph"
	"costsense/internal/harness"
	"costsense/internal/mst"
	"costsense/internal/obs"
	"costsense/internal/reliable"
	"costsense/internal/sim"
)

// ClassRow is one message class's cost share in a trial, in class-name
// order.
type ClassRow struct {
	Class    string `json:"class"`
	Messages int64  `json:"messages"`
	Comm     int64  `json:"comm"`
}

// TrialRow is the scalar outcome of one trial — everything in
// sim.Stats that serializes deterministically, keyed by trial index.
type TrialRow struct {
	Trial       int        `json:"trial"`
	Seed        int64      `json:"seed"`
	Messages    int64      `json:"messages"`
	Comm        int64      `json:"comm"`
	Time        int64      `json:"time"`
	Events      int64      `json:"events"`
	Dropped     int64      `json:"dropped,omitempty"`
	Duplicated  int64      `json:"duplicated,omitempty"`
	DeadLetters int64      `json:"dead_letters,omitempty"`
	Timers      int64      `json:"timers,omitempty"`
	UsedWeight  int64      `json:"used_weight"`
	Spans       bool       `json:"spans"`
	ByClass     []ClassRow `json:"by_class"`
}

// SubstrateInfo identifies the substrate a result ran on.
type SubstrateInfo struct {
	Key         string `json:"key"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	TotalWeight int64  `json:"total_weight"` // 𝓔
	MSTWeight   int64  `json:"mst_weight"`   // 𝓥
}

// Aggregate sums the sweep. All fields are order-independent
// reductions over the trial rows, so they are deterministic even
// though trials complete in scheduler order.
type Aggregate struct {
	Trials      int   `json:"trials"`
	SumMessages int64 `json:"sum_messages"`
	SumComm     int64 `json:"sum_comm"`
	MaxTime     int64 `json:"max_time"`
	SumEvents   int64 `json:"sum_events"`
	AllSpan     bool  `json:"all_span"`
}

// Result is a finished job's payload: the normalized spec it ran, the
// substrate identity, per-trial rows in index order, the sweep
// aggregate, and the full obs metrics export of trial 0. It is a pure
// function of the spec — resubmitting a spec returns byte-identical
// bytes whether or not the substrate was cached.
type Result struct {
	Spec      Spec            `json:"spec"`
	Substrate SubstrateInfo   `json:"substrate"`
	Aggregate Aggregate       `json:"aggregate"`
	Trials    []TrialRow      `json:"trials"`
	Metrics   json.RawMessage `json:"metrics"`
}

// delayModel resolves a normalized delay name.
func delayModel(name string) sim.DelayModel {
	switch name {
	case "unit":
		return sim.DelayUnit{}
	case "uniform":
		return sim.DelayUniform{}
	}
	return sim.DelayMax{}
}

// runExperiment dispatches a normalized experiment kind and returns
// the run's Stats.
func runExperiment(kind string, g *graph.Graph, root graph.NodeID, opts []sim.Option) (*sim.Stats, error) {
	switch kind {
	case "flood":
		r, err := basic.RunFlood(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "dfs":
		r, err := basic.RunDFS(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "mstcentr":
		r, err := basic.RunMSTCentr(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "sptcentr":
		r, err := basic.RunSPTCentr(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "conhybrid":
		r, err := connect.RunCONHybrid(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "ghs":
		r, err := mst.RunGHS(g, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "mstfast":
		r, err := mst.RunMSTFast(g, opts...)
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	case "msthybrid":
		r, err := mst.RunMSTHybrid(g, root, opts...)
		if err != nil {
			return nil, err
		}
		return r.Result.Stats, nil
	}
	return nil, fmt.Errorf("serve: unknown experiment %q", kind)
}

// newTrialRow flattens a run's Stats into a TrialRow. It reads
// everything it needs immediately — with pooled networks the *Stats is
// invalidated by the worker's next trial.
func newTrialRow(trial int, seed int64, g *graph.Graph, st *sim.Stats) TrialRow {
	row := TrialRow{
		Trial:       trial,
		Seed:        seed,
		Messages:    st.Messages,
		Comm:        st.Comm,
		Time:        st.FinishTime,
		Events:      st.Events,
		Dropped:     st.Dropped,
		Duplicated:  st.Duplicated,
		DeadLetters: st.DeadLetters,
		Timers:      st.Timers,
		UsedWeight:  st.UsedWeight(g),
		Spans:       st.UsedSpans(g),
	}
	classes := make([]string, 0, len(st.ByClass))
	//costsense:nondet-ok collects keys only; sorted before any output below
	for c := range st.ByClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	row.ByClass = make([]ClassRow, 0, len(classes))
	for _, c := range classes {
		cs := st.ByClass[sim.Class(c)]
		row.ByClass = append(row.ByClass, ClassRow{Class: c, Messages: cs.Messages, Comm: cs.Comm})
	}
	return row
}

// runSpec executes a normalized spec's sweep on a cached substrate and
// assembles its Result. Trials fan out on the harness worker pool;
// each worker owns a sim.Pool so consecutive trials on that worker
// reuse one network allocation (the Reset golden contract keeps the
// results byte-identical to fresh networks). Trial 0 additionally
// carries the obs metrics observer, whose JSON export is embedded in
// the result.
//
// Cancelling ctx (a drain deadline at shutdown) aborts the sweep
// between trials and fails the job with the context error.
func runSpec(ctx context.Context, spec Spec, sub *Substrate, sink harness.Sink) (*Result, error) {
	g := sub.Graph()
	delay := delayModel(spec.Delay)
	root := graph.NodeID(spec.Root)

	// One fault plan per sweep, derived from the substrate and the
	// fault seed — every trial faces the same adversary while the run
	// seed varies.
	var plan sim.FaultPlan
	if f := spec.Faults; f != nil {
		plan = sim.RandomFaultPlan(g, f.Seed, f.Drop, f.Dup, f.Crashes, f.Downs, f.Horizon)
	}

	metrics := obs.NewMetrics(g)
	rows, err := harness.RunIndexedPooled(ctx, spec.Trials,
		func() *sim.Pool { return sim.NewPool(2) },
		func(_ context.Context, pool *sim.Pool, i int) (TrialRow, error) {
			seed := spec.Seed + int64(i)
			opts := []sim.Option{
				sim.WithDelay(delay), sim.WithSeed(seed), sim.WithPool(pool),
			}
			if spec.EventLimit > 0 {
				opts = append(opts, sim.WithEventLimit(spec.EventLimit))
			}
			if spec.Faults != nil {
				rel, _ := reliable.Install(reliable.Config{})
				opts = append(opts, sim.WithFaults(plan), rel)
			}
			if i == 0 {
				opts = append(opts, sim.WithObserver(metrics))
			}
			st, err := runExperiment(spec.Experiment, g, root, opts)
			if err != nil {
				return TrialRow{}, fmt.Errorf("trial %d (seed %d): %w", i, seed, err)
			}
			return newTrialRow(i, seed, g, st), nil
		}, sink)
	if err != nil {
		return nil, err
	}

	agg := Aggregate{Trials: len(rows), AllSpan: true}
	for _, r := range rows {
		agg.SumMessages += r.Messages
		agg.SumComm += r.Comm
		agg.SumEvents += r.Events
		if r.Time > agg.MaxTime {
			agg.MaxTime = r.Time
		}
		agg.AllSpan = agg.AllSpan && r.Spans
	}

	var metricsJSON bytes.Buffer
	if err := metrics.WriteJSON(&metricsJSON); err != nil {
		return nil, fmt.Errorf("serve: exporting trial-0 metrics: %w", err)
	}
	return &Result{
		Spec: spec,
		Substrate: SubstrateInfo{
			Key: sub.Key(), N: g.N(), M: g.M(),
			TotalWeight: sub.TotalWeight(), MSTWeight: sub.MSTWeight(),
		},
		Aggregate: agg,
		Trials:    rows,
		Metrics:   json.RawMessage(metricsJSON.Bytes()),
	}, nil
}
