package sim

import (
	"reflect"
	"testing"

	"costsense/internal/graph"
)

// This file pins the Reset/Pool reuse contract: a Network that has
// already completed a run and is then Reset must behave byte-for-byte
// like a freshly constructed one — same Stats (including UsedEdges and
// ByClass), same traces — across every delay model, with and without
// congestion and faults. The serve-mode sweep path leans on this: a
// pooled Network is just a fresh Network that skipped its allocations.

// tracingFlooder is ackFlooder plus a Record call per token receipt,
// so reuse tests cover the trace path too.
type tracingFlooder struct{ ackFlooder }

func (f *tracingFlooder) Handle(ctx Context, from graph.NodeID, m Message) {
	if m == "tok" {
		ctx.Record("tok", int64(from))
	}
	f.ackFlooder.Handle(ctx, from, m)
}

func resetTestGraph() *graph.Graph {
	return graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
}

func resetTestProcs(g *graph.Graph) []Process {
	procs := make([]Process, g.N())
	for v := range procs {
		procs[v] = &tracingFlooder{}
	}
	return procs
}

// resetFaultPlan is a fixed plan exercising every fault mechanism:
// probabilistic drops and duplicates, merged down-windows, and a
// fail-stop crash.
func resetFaultPlan() FaultPlan {
	return FaultPlan{
		Drop: 0.08,
		Dup:  0.04,
		Down: []LinkDown{
			{Edge: 3, From: 5, Until: 40},
			{Edge: 10, From: 0, Until: 20},
			{Edge: 10, From: 15, Until: 30}, // overlaps: exercises merging
		},
		Crashes: []Crash{{Node: 7, At: 30}},
	}
}

// resetCases is the full matrix: the delay/congestion golden cases,
// each with and without the fault plan.
type resetCase struct {
	name string
	opts func() []Option
}

func resetCases() []resetCase {
	var cases []resetCase
	for _, c := range detCases() {
		c := c
		base := func() []Option {
			opts := []Option{WithDelay(c.delay), WithSeed(c.seed)}
			if c.congested {
				opts = append(opts, WithCongestion())
			}
			return opts
		}
		cases = append(cases, resetCase{name: c.name, opts: base})
		cases = append(cases, resetCase{name: c.name + "/faults", opts: func() []Option {
			return append(base(), WithFaults(resetFaultPlan()))
		}})
	}
	return cases
}

// capture is the full observable outcome of one run.
type capture struct {
	stats  Stats
	used   []bool
	traces map[string][]TracePoint
}

func captureRun(t *testing.T, n *Network) capture {
	t.Helper()
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	cp := capture{stats: *st, used: append([]bool(nil), st.UsedEdges...)}
	cp.stats.UsedEdges = nil
	cp.traces = make(map[string][]TracePoint)
	for _, k := range n.Traces() {
		cp.traces[k] = append([]TracePoint(nil), n.Trace(k)...)
	}
	return cp
}

func (c capture) equal(d capture) bool {
	return reflect.DeepEqual(c.stats, d.stats) &&
		reflect.DeepEqual(c.used, d.used) &&
		reflect.DeepEqual(c.traces, d.traces)
}

// TestResetMatchesFresh runs every configuration twice on one Network
// via Reset and checks both runs reproduce a fresh Network's outcome
// exactly. The first reused run follows a run under a *different*
// configuration (the previous case), so stale state of every kind —
// fault marks, congestion floors, RNG streams, interned classes — has
// a chance to leak and be caught.
func TestResetMatchesFresh(t *testing.T) {
	g := resetTestGraph()
	reused, err := NewNetwork(g, resetTestProcs(g), resetCases()[len(resetCases())-1].opts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run(); err != nil {
		t.Fatal(err) // prime the reused network with a different config
	}
	for _, c := range resetCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fresh, err := NewNetwork(g, resetTestProcs(g), c.opts()...)
			if err != nil {
				t.Fatal(err)
			}
			want := captureRun(t, fresh)
			if err := reused.Reset(resetTestProcs(g), c.opts()...); err != nil {
				t.Fatal(err)
			}
			got := captureRun(t, reused)
			if !got.equal(want) {
				t.Errorf("reused run diverged from fresh run:\n got  %+v\n want %+v", got.stats, want.stats)
			}
		})
	}
}

// TestResetGolden re-checks the pinned golden Stats on a heavily
// reused Network: reuse may not drift the engine off the recorded
// baselines.
func TestResetGolden(t *testing.T) {
	g := resetTestGraph()
	var n *Network
	for _, c := range detCases() {
		procs := make([]Process, g.N())
		for v := range procs {
			procs[v] = &ackFlooder{}
		}
		opts := []Option{WithDelay(c.delay), WithSeed(c.seed)}
		if c.congested {
			opts = append(opts, WithCongestion())
		}
		var err error
		if n == nil {
			n, err = NewNetwork(g, procs, opts...)
		} else {
			err = n.Reset(procs, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := flatten(st); got != c.want {
			t.Errorf("%s: reused-network stats diverged from golden:\n got  %+v\n want %+v", c.name, got, c.want)
		}
	}
}

// TestPoolReuse checks the WithPool path end to end: the second
// NewNetwork over the same graph returns the same instance, results
// stay identical to unpooled runs, and the pool's keying is by graph
// pointer identity.
func TestPoolReuse(t *testing.T) {
	g := resetTestGraph()
	p := NewPool(2)
	run := func(seed int64) (*Network, capture) {
		n, err := NewNetwork(g, resetTestProcs(g), WithSeed(seed), WithDelay(DelayUniform{}), WithPool(p))
		if err != nil {
			t.Fatal(err)
		}
		return n, captureRun(t, n)
	}
	n1, got1 := run(1)
	if p.Size() != 1 {
		t.Fatalf("pool size after first run = %d, want 1", p.Size())
	}
	n2, got2 := run(1)
	if n1 != n2 {
		t.Errorf("pool did not reuse the idle network for the same graph")
	}
	if !got1.equal(got2) {
		t.Errorf("pooled rerun diverged: %+v vs %+v", got1.stats, got2.stats)
	}
	fresh, err := NewNetwork(g, resetTestProcs(g), WithSeed(1), WithDelay(DelayUniform{}))
	if err != nil {
		t.Fatal(err)
	}
	want := captureRun(t, fresh)
	if !got2.equal(want) {
		t.Errorf("pooled run diverged from unpooled run")
	}

	// A different graph misses the pool and pools separately.
	g2 := graph.Ring(10, graph.UnitWeights())
	n3, err := NewNetwork(g2, resetTestProcs(g2), WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	if n3 == n2 {
		t.Errorf("pool returned a network built for a different graph")
	}
	if _, err := n3.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Errorf("pool size = %d, want 2 (one per graph)", p.Size())
	}
}

// TestPoolEviction checks the size bound: the least recently released
// network is dropped when the pool is full.
func TestPoolEviction(t *testing.T) {
	p := NewPool(2)
	graphs := []*graph.Graph{
		graph.Ring(6, graph.UnitWeights()),
		graph.Ring(7, graph.UnitWeights()),
		graph.Ring(8, graph.UnitWeights()),
	}
	for _, g := range graphs {
		n, err := NewNetwork(g, resetTestProcs(g), WithPool(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", p.Size())
	}
	if got := p.take(graphs[0]); got != nil {
		t.Errorf("oldest network was not evicted")
	}
	if got := p.take(graphs[2]); got == nil {
		t.Errorf("newest network missing from pool")
	}
}

// TestResetRunTwice: Run still refuses to run twice without a Reset,
// and Reset re-arms it.
func TestResetRunTwice(t *testing.T) {
	g := graph.Ring(8, graph.UnitWeights())
	n, err := NewNetwork(g, resetTestProcs(g))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err == nil {
		t.Fatal("second Run without Reset succeeded, want error")
	}
	if err := n.Reset(resetTestProcs(g)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatalf("Run after Reset failed: %v", err)
	}
}

// TestProcessWrapperRunsOncePerReset pins the deferred-wrap contract:
// WithProcessWrapper's function runs exactly once per construction or
// Reset — in particular it is NOT double-applied when an option list
// is replayed onto a pooled instance.
func TestProcessWrapperRunsOncePerReset(t *testing.T) {
	g := graph.Ring(8, graph.UnitWeights())
	p := NewPool(1)
	calls := 0
	wrap := WithProcessWrapper(func(ps []Process) []Process {
		calls++
		return ps
	})
	for i := 0; i < 3; i++ {
		n, err := NewNetwork(g, resetTestProcs(g), wrap, WithPool(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if calls != i+1 {
			t.Fatalf("after %d pooled runs: wrapper ran %d times, want %d", i+1, calls, i+1)
		}
	}
}

// TestResetAfterEventLimit: a run aborted by the event budget leaves
// in-flight events behind; Reset must clear them and the next run must
// match a fresh network exactly.
func TestResetAfterEventLimit(t *testing.T) {
	g := resetTestGraph()
	n, err := NewNetwork(g, resetTestProcs(g), WithEventLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
	fresh, err := NewNetwork(g, resetTestProcs(g), WithSeed(3), WithDelay(DelayUniform{}))
	if err != nil {
		t.Fatal(err)
	}
	want := captureRun(t, fresh)
	if err := n.Reset(resetTestProcs(g), WithSeed(3), WithDelay(DelayUniform{})); err != nil {
		t.Fatal(err)
	}
	got := captureRun(t, n)
	if !got.equal(want) {
		t.Errorf("post-abort reused run diverged from fresh run:\n got  %+v\n want %+v", got.stats, want.stats)
	}
}
