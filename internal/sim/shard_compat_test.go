package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"costsense/internal/cover"
	"costsense/internal/graph"
)

// The engine has one event loop. WithShardAssignment and ShardAssignment
// survive only as deprecated no-ops for callers written against the
// removed sharded engine, and their contract is that such a caller gets
// the serial execution byte for byte. The tests below pin that contract
// with the shard counts the sharded engine was checked at.

// logObserver records every callback, payload included, as one
// formatted line. Two runs are observably identical exactly when their
// logs match line for line — a stronger check than comparing derived
// exports, since it pins callback order, sequence numbering and every
// scalar field.
type logObserver struct{ lines []string }

func (o *logObserver) OnSend(e SendEvent, m Message) {
	o.lines = append(o.lines, fmt.Sprintf("S %+v %v", e, m))
}
func (o *logObserver) OnDeliver(e DeliverEvent, m Message) {
	o.lines = append(o.lines, fmt.Sprintf("D %+v %v", e, m))
}
func (o *logObserver) OnDrop(e DropEvent, m Message) {
	o.lines = append(o.lines, fmt.Sprintf("X %+v %v", e, m))
}
func (o *logObserver) OnCrash(v graph.NodeID, at int64) {
	o.lines = append(o.lines, fmt.Sprintf("C %d %d", v, at))
}
func (o *logObserver) OnLinkDown(e graph.EdgeID, from, until int64) {
	o.lines = append(o.lines, fmt.Sprintf("L %d %d %d", e, from, until))
}
func (o *logObserver) OnRecord(v graph.NodeID, t int64, k string, val int64) {
	o.lines = append(o.lines, fmt.Sprintf("R %d %d %s %d", v, t, k, val))
}
func (o *logObserver) OnQuiesce(s *Stats) {
	o.lines = append(o.lines, fmt.Sprintf("Q %+v", *s))
}

// shardCounts is the shard counts a legacy caller may ask for: 2, 4
// and one shard per γ cluster.
func shardCounts(g *graph.Graph) []int {
	nc := cover.NewPartitionGrowth(g, 2).NumClusters()
	return []int{2, 4, nc}
}

// withLegacyShards is what a caller of the removed sharded engine
// passes: a k-shard assignment of g.
func withLegacyShards(g *graph.Graph, k int) Option {
	return WithShardAssignment(ShardAssignment(g, k))
}

// runPair runs the same configuration plainly and with a legacy shard
// assignment, returning both networks after their runs for trace
// comparison.
func runPair(t *testing.T, g *graph.Graph, mk func() Process, shards int, opts ...Option) (*Network, *Network, *Stats, *Stats) {
	t.Helper()
	build := func(extra ...Option) (*Network, *Stats) {
		procs := make([]Process, g.N())
		for v := range procs {
			procs[v] = mk()
		}
		n, err := NewNetwork(g, procs, append(append([]Option{}, opts...), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		return n, st
	}
	ns, ss := build()
	np, sp := build(withLegacyShards(g, shards))
	return ns, np, ss, sp
}

// assertIdentical compares every observable of a plain/legacy pair:
// full Stats (fault counters and UsedEdges included), trace keys and
// every trace point sequence.
func assertIdentical(t *testing.T, ns, np *Network, ss, sp *Stats) {
	t.Helper()
	if !reflect.DeepEqual(ss, sp) {
		t.Errorf("Stats diverged:\n serial  %+v\n sharded %+v", ss, sp)
	}
	sk, pk := ns.Traces(), np.Traces()
	if !reflect.DeepEqual(sk, pk) {
		t.Fatalf("trace keys diverged: serial %v, sharded %v", sk, pk)
	}
	for _, k := range sk {
		if !reflect.DeepEqual(ns.Trace(k), np.Trace(k)) {
			t.Errorf("trace %q diverged:\n serial  %v\n sharded %v", k, ns.Trace(k), np.Trace(k))
		}
	}
}

// TestShardedMatchesSerial: every delay model x congestion x seed case
// from the serial golden table, with and without a fault plan, given a
// legacy shard assignment at each shard count — Stats and traces must
// be identical to the plain run.
func TestShardedMatchesSerial(t *testing.T) {
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	plans := []struct {
		name string
		plan *FaultPlan
	}{
		{name: "clean", plan: nil},
		{name: "faulty", plan: &FaultPlan{Drop: 0.05, Dup: 0.07,
			Down:    []LinkDown{{Edge: 3, From: 2, Until: 40}, {Edge: 17, From: 0, Until: 9}, {Edge: 55, From: 10, Until: 11}},
			Crashes: []Crash{{Node: 7, At: 25}, {Node: 31, At: 3}}}},
	}
	for _, c := range detCases() {
		for _, fp := range plans {
			for _, k := range shardCounts(g) {
				name := fmt.Sprintf("%s/%s/shards%d", c.name, fp.name, k)
				t.Run(name, func(t *testing.T) {
					opts := []Option{WithDelay(c.delay), WithSeed(c.seed)}
					if c.congested {
						opts = append(opts, WithCongestion())
					}
					if fp.plan != nil {
						opts = append(opts, WithFaults(*fp.plan))
					}
					ns, np, ss, sp := runPair(t, g, func() Process { return &ackFlooder{} }, k, opts...)
					assertIdentical(t, ns, np, ss, sp)
				})
			}
		}
	}
}

// TestShardedObserverLogIdentical: the full observer callback stream of
// a run given a legacy shard assignment matches the plain run line for
// line, payloads and sequence numbers included — clean and faulty,
// plain and congested.
func TestShardedObserverLogIdentical(t *testing.T) {
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	fp := RandomFaultPlan(g, 99, 0.06, 0.08, 3, 6, 60)
	for _, tc := range []struct {
		name  string
		delay DelayModel
		cong  bool
		fault bool
	}{
		{name: "max/plain/clean", delay: DelayMax{}},
		{name: "uniform/congested/clean", delay: DelayUniform{}, cong: true},
		{name: "max/plain/faulty", delay: DelayMax{}, fault: true},
		{name: "uniform/plain/faulty", delay: DelayUniform{}, fault: true},
		{name: "unit/congested/faulty", delay: DelayUnit{}, cong: true, fault: true},
	} {
		for _, k := range shardCounts(g) {
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, k), func(t *testing.T) {
				run := func(shards int) []string {
					procs := make([]Process, g.N())
					for v := range procs {
						procs[v] = &obsFlooder{}
					}
					o := &logObserver{}
					opts := []Option{WithDelay(tc.delay), WithSeed(5), WithObserver(o)}
					if tc.cong {
						opts = append(opts, WithCongestion())
					}
					if tc.fault {
						opts = append(opts, WithFaults(fp))
					}
					if shards > 1 {
						opts = append(opts, withLegacyShards(g, shards))
					}
					if _, err := Run(g, procs, opts...); err != nil {
						t.Fatal(err)
					}
					return o.lines
				}
				serial, sharded := run(1), run(k)
				if len(serial) != len(sharded) {
					t.Fatalf("callback count diverged: serial %d, sharded %d", len(serial), len(sharded))
				}
				for i := range serial {
					if serial[i] != sharded[i] {
						t.Fatalf("callback %d diverged:\n serial  %s\n sharded %s", i, serial[i], sharded[i])
					}
				}
			})
		}
	}
}

// timerPinger exercises TimerContext: every node schedules staggered
// timers from Init, each firing sends a token to the next neighbor and
// records a trace point.
type timerPinger struct{ fired int64 }

func (p *timerPinger) Init(ctx Context) {
	tc := ctx.(TimerContext)
	tc.ScheduleTimer(1+int64(ctx.ID())%5, "tick")
	tc.ScheduleTimer(7, "tock")
}

func (p *timerPinger) Handle(ctx Context, from graph.NodeID, m Message) {
	if from == ctx.ID() { // timer
		p.fired++
		ctx.Record("fired", p.fired)
		if p.fired <= 2 {
			nbrs := ctx.Neighbors()
			ctx.Send(nbrs[int(p.fired)%len(nbrs)].To, "ping")
		}
		return
	}
	if m == "ping" {
		ctx.SendClass(from, "pong", ClassAck)
	}
}

// TestShardedTimers: with a legacy shard assignment, timers interleave
// with deliveries exactly as in the plain run.
func TestShardedTimers(t *testing.T) {
	g := graph.RandomConnected(30, 70, graph.UniformWeights(16, 3), 11)
	for _, k := range shardCounts(g) {
		t.Run(fmt.Sprintf("shards%d", k), func(t *testing.T) {
			ns, np, ss, sp := runPair(t, g, func() Process { return &timerPinger{} }, k, WithDelay(DelayUniform{}), WithSeed(3))
			assertIdentical(t, ns, np, ss, sp)
			if ss.Timers == 0 {
				t.Fatal("workload scheduled no timers; test is vacuous")
			}
		})
	}
}

// TestShardedEventLimit: a legacy shard assignment does not bypass the
// event budget; an exhausted budget surfaces as *ErrEventLimit.
func TestShardedEventLimit(t *testing.T) {
	g := graph.RandomConnected(30, 80, graph.UniformWeights(8, 3), 5)
	procs := make([]Process, g.N())
	for v := range procs {
		procs[v] = &obsFlooder{}
	}
	_, err := Run(g, procs, withLegacyShards(g, 3), WithEventLimit(10))
	var lim *ErrEventLimit
	if !errors.As(err, &lim) {
		t.Fatalf("run with a shard assignment and a tiny budget returned %v, want *ErrEventLimit", err)
	}
	if lim.Limit != 10 {
		t.Errorf("ErrEventLimit.Limit = %d, want 10", lim.Limit)
	}
}

// TestResetSharded: network reuse with a legacy shard assignment — a
// Reset network given one matches a fresh plain run, and vice versa.
func TestResetSharded(t *testing.T) {
	g := resetTestGraph()
	fresh, err := NewNetwork(g, resetTestProcs(g), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want := captureRun(t, fresh)

	n, err := NewNetwork(g, resetTestProcs(g), withLegacyShards(g, 4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := captureRun(t, n); !got.equal(want) {
		t.Fatal("fresh run with a shard assignment diverged from the plain run")
	}
	if err := n.Reset(resetTestProcs(g), WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	if got := captureRun(t, n); !got.equal(want) {
		t.Errorf("plain run on a network previously given a shard assignment diverged")
	}
	if err := n.Reset(resetTestProcs(g), withLegacyShards(g, 4), WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	if got := captureRun(t, n); !got.equal(want) {
		t.Errorf("reused run with a shard assignment diverged")
	}
}
