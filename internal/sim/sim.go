// Package sim provides the executable form of the paper's model of
// computation (§1.3): a static asynchronous point-to-point network over
// a weighted graph G = (V, E, w), where
//
//   - transmitting a message over edge e costs w(e) units of
//     communication, and
//   - the delay of edge e varies adversarially in (0, w(e)].
//
// The simulator is a deterministic discrete-event engine. It accounts
// the two cost-sensitive complexity measures of the paper — weighted
// communication c_π and completion time t_π — separated per message
// class, so that synchronizer and controller overheads can be reported
// apart from the protocol's own traffic.
//
// The hot path (Send → queue → deliver) is allocation-free per event:
// events live in a concrete 4-ary min-heap (internal/pq), FIFO link
// state and class accounting are dense slices indexed by directed-edge
// and interned class IDs, and the neighbor lookup is a precomputed
// per-node index instead of an adjacency scan. See DESIGN.md,
// "Simulator internals & performance".
//
// The package also contains a weighted *synchronous* executor
// (SyncRun): edge e delivers in exactly w(e) pulses. It provides the
// reference semantics that network synchronizers (§4) must simulate.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"costsense/internal/graph"
	"costsense/internal/pq"
)

// Message is an opaque protocol payload.
type Message any

// Class labels a message for cost accounting.
type Class string

// Message classes used across the library. Protocols may introduce
// their own.
const (
	ClassProto   Class = "proto"   // the simulated algorithm's own messages
	ClassAck     Class = "ack"     // acknowledgments (free asymptotically, §4.1)
	ClassSync    Class = "sync"    // synchronizer overhead
	ClassControl Class = "control" // controller overhead
	ClassRetx    Class = "retx"    // reliable-delivery retransmissions (internal/reliable)
)

// Context is the interface a process uses to interact with the network.
// The model is full-information with respect to topology (§1.4.1: "the
// structure of the network is known to all the vertices, including the
// edge weights"); only the other vertices' inputs and dynamic state are
// unknown.
type Context interface {
	// ID returns this node's identity.
	ID() graph.NodeID
	// Now returns the current simulated time.
	Now() int64
	// Graph returns the communication graph.
	Graph() *graph.Graph
	// Neighbors returns this node's incident half-edges.
	Neighbors() []graph.Half
	// Send transmits m to a neighbor at cost w(e), class ClassProto.
	Send(to graph.NodeID, m Message)
	// SendClass transmits m with an explicit accounting class.
	SendClass(to graph.NodeID, m Message, c Class)
	// Record appends (node, time, key, value) to the run trace.
	Record(key string, value int64)
}

// Process is a per-node protocol automaton. Local computation is free
// and instantaneous, per the standard model.
type Process interface {
	// Init runs once at time 0.
	Init(Context)
	// Handle runs on every message delivery.
	Handle(ctx Context, from graph.NodeID, m Message)
}

// DelayModel chooses the delay of each transmission. Delay receives the
// actual network edge as stored in the graph — canonical (U, V)
// orientation and its EdgeID — so models can key off edge identity.
type DelayModel interface {
	// Delay returns the transit time for a message on e, in [1, e.W].
	Delay(e graph.Edge, rng *rand.Rand) int64
}

// DelayMax is the maximal adversary: every message takes exactly w(e).
// This is the adversary against which the paper's upper bounds are
// proved, and the default.
type DelayMax struct{}

// Delay returns w(e).
func (DelayMax) Delay(e graph.Edge, _ *rand.Rand) int64 { return e.W }

// DelayUnit delivers every message in one time unit regardless of
// weight — the most lenient adversary, useful to separate congestion
// from transit time.
type DelayUnit struct{}

// Delay returns 1.
func (DelayUnit) Delay(graph.Edge, *rand.Rand) int64 { return 1 }

// DelayUniform draws each delay uniformly from [1, w(e)].
type DelayUniform struct{}

// Delay returns a uniform draw from [1, w(e)].
func (DelayUniform) Delay(e graph.Edge, rng *rand.Rand) int64 {
	if e.W <= 1 {
		return 1
	}
	return 1 + rng.Int63n(e.W)
}

// ClassStats aggregates the cost of one message class.
type ClassStats struct {
	Messages int64 // number of messages
	Comm     int64 // weighted communication: Σ w(e) over transmissions
}

// Stats aggregates the cost-sensitive complexity of a run.
type Stats struct {
	Messages   int64 // total messages
	Comm       int64 // total weighted communication c_π
	FinishTime int64 // completion time t_π (time of last delivery)
	ByClass    map[Class]ClassStats
	Events     int64 // deliveries processed (safety budget accounting)
	// Fault accounting (all zero without WithFaults). Dropped and
	// Duplicated count send-time faults; DeadLetters counts messages
	// that arrived at a crashed node. Dropped messages are still
	// accounted in Messages/Comm — the sender paid for the
	// transmission — while duplicates are free (the adversary, not the
	// protocol, injected them). Timers counts ScheduleTimer firings;
	// timers are free and appear in Events only.
	Dropped     int64
	Duplicated  int64
	DeadLetters int64
	Timers      int64
	// UsedEdges marks the edges that carried at least one message —
	// the subgraph G' of the Theorem 2.1 information-flow argument.
	UsedEdges []bool
}

// checkGraph guards the UsedEdges accessors against being interpreted
// over a graph other than the one that produced the Stats: edge IDs
// index a specific graph's edge list, so mixing graphs silently
// returns garbage (or panics out of range only when the run's graph
// was larger).
func (s *Stats) checkGraph(g *graph.Graph, method string) {
	if len(s.UsedEdges) != g.M() {
		panic(fmt.Sprintf(
			"sim: Stats.%s: stats were recorded on a graph with %d edges but queried against one with %d; pass the same graph the run used",
			method, len(s.UsedEdges), g.M()))
	}
}

// UsedWeight returns w(G'): the total weight of edges that carried
// traffic. Theorem 2.1: for a global function computation, G' must
// contain a spanning tree, so UsedWeight() >= 𝓥. g must be the graph
// the run executed on; any other graph panics.
func (s *Stats) UsedWeight(g *graph.Graph) int64 {
	s.checkGraph(g, "UsedWeight")
	var w int64
	for id, used := range s.UsedEdges {
		if used {
			w += g.Edge(graph.EdgeID(id)).W
		}
	}
	return w
}

// UsedSpans reports whether the used edges connect all of V. g must be
// the graph the run executed on; any other graph panics.
func (s *Stats) UsedSpans(g *graph.Graph) bool {
	s.checkGraph(g, "UsedSpans")
	dsu := graph.NewDSU(g.N())
	comps := g.N()
	for id, used := range s.UsedEdges {
		if used {
			e := g.Edge(graph.EdgeID(id))
			if dsu.Union(int(e.U), int(e.V)) {
				comps--
			}
		}
	}
	return comps == 1 || g.N() <= 1
}

// CommOf returns the weighted communication of one class.
func (s *Stats) CommOf(c Class) int64 { return s.ByClass[c].Comm }

// MessagesOf returns the message count of one class.
func (s *Stats) MessagesOf(c Class) int64 { return s.ByClass[c].Messages }

// TracePoint is one Record call.
type TracePoint struct {
	Node  graph.NodeID
	Time  int64
	Value int64
}

// event is one scheduled delivery. It is deliberately pointer-free and
// 32 bytes: the payload lives in the Network's message arena (indexed
// by msgIdx) and endpoints are narrowed to int32, so sifting events
// through the heap moves four plain words with no GC write barriers.
// The fault/timer markers share the struct's existing padding byte.
//
// seq is the *sender's* per-node push counter (one per transmission
// attempt, duplicate or timer that node originates), not a global
// counter: the ordering key (at, from, seq) is then a pure function of
// each node's own deterministic execution, independent of how events
// from different nodes interleave globally. The key is baked into
// every pinned golden (determinism_test.go), so it may not change.
type event struct {
	at     int64
	seq    int64
	to     int32
	from   int32
	msgIdx int32
	flags  uint8
}

// event.flags bits.
const (
	flagTimer uint8 = 1 << iota // self-scheduled timer, not a transmission
	flagDup                     // fault-injected duplicate copy
)

// Less orders events by (time, sender, sender's push sequence). The
// (from, seq) pair is globally unique, so the order is total and runs
// are deterministic no matter how the queue breaks ties internally.
//
//costsense:hotpath
func (e event) Less(f event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	if e.from != f.from {
		return e.from < f.from
	}
	return e.seq < f.seq
}

// Option configures a Network.
type Option func(*Network)

// WithDelay sets the delay model (default DelayMax).
func WithDelay(d DelayModel) Option {
	return func(n *Network) { n.delay = d }
}

// WithSeed seeds the delay and fault RNG streams (default 1). Runs are
// deterministic for a fixed seed and delay model. Every node draws
// from its own stream, split from the seed by a fixed mixing function
// (nodeSeed), so a node's draws depend only on its own send sequence —
// never on how events from different nodes interleave. The split is
// pinned by TestNodeSeedPinned.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.seed = seed }
}

// WithEventLimit bounds the number of deliveries before Run aborts with
// an error; a guard against diverging protocols (default 50 million).
func WithEventLimit(limit int64) Option {
	return func(n *Network) { n.eventLimit = limit }
}

// WithCongestion makes links capacitated: a directed edge transmits one
// message at a time, each occupying it for the message's delay, so
// concurrent messages on a shared edge serialize. This is the link
// model behind the congestion factors in the paper's time bounds (e.g.
// the extra log n in γ*'s O(d·log²n) pulse delay, from edges shared by
// O(log n) cover trees). Off by default: the plain model delivers every
// message after its own delay regardless of load.
func WithCongestion() Option {
	return func(n *Network) { n.congested = true }
}

// WithShardAssignment returns an option that does nothing.
//
// Deprecated: the engine runs every execution on one event loop, so a
// node -> shard map has nothing to configure. The perfbench module is
// the last caller; the Sharded* tests pin that a run given the option
// is byte-identical to the plain run.
func WithShardAssignment([]int32) Option {
	return func(*Network) {}
}

// ShardAssignment returns nil.
//
// Deprecated: there is no sharded engine to partition for. The
// perfbench module is the last caller.
func ShardAssignment(*graph.Graph, int) []int32 { return nil }

// WithProcessWrapper rewraps every process through wrap before the run
// starts: wrap receives the configured process slice and returns the
// slice to actually execute, one process per vertex. This is the hook
// adapter layers use to interpose on an *arbitrary* runner — e.g.
// internal/reliable wraps each protocol automaton with a
// retransmitting, deduplicating shim by passing this option to RunGHS
// or RunGammaW, leaving the protocols themselves untouched.
//
// Like every Option, the wrapper is recorded when the option is
// applied and takes effect exactly once, at finalize — so an option
// list can be probed and replayed onto a pooled Network (see Pool)
// without running wrap's side effects twice.
func WithProcessWrapper(wrap func([]Process) []Process) Option {
	return func(n *Network) { n.wrapFns = append(n.wrapFns, wrap) }
}

// halfEdge is one entry of the per-node neighbor index: the directed
// half-edge toward `to`, carrying the canonical stored edge and the
// directed-edge slot in lastArrive. Entries are sorted by `to`; for
// parallel edges the first adjacency occurrence (lowest edge ID) sorts
// first and is the one send resolves, matching the semantics of the
// adjacency-scan it replaces.
type halfEdge struct {
	to    graph.NodeID
	w     int64
	did   int32 // directed-edge index: 2*edge.ID + orientation
	fdown uint8 // nonzero when the edge has scheduled down-windows (WithFaults)
	eid   graph.EdgeID
}

// nClassHint sizes the interned-class table: the four standard classes
// plus room for a few protocol-defined ones before the slices grow.
const nClassHint = 8

// Network is one asynchronous execution: a graph, one process per
// vertex, and a pending-event queue.
type Network struct {
	g          *graph.Graph
	procs      []Process
	delay      DelayModel
	seed       int64 // RNG seed; per-node streams split from it (nodeSeed)
	queue      pq.Heap[event]
	now        int64
	sendSeq    int64   // probe sequence: one per OnSend-visible transmission, dense 1..S
	curCause   int64   // probe seq of the delivery being handled (0 during Init); SendEvent.Cause
	lastArrive []int64 // directed-edge ID -> last scheduled arrival (FIFO) / busy-until (congested)
	nbr        [][]halfEdge
	msgs       []Message // in-flight payload arena, indexed by event.msgIdx
	msgSeq     []int64   // arena slot -> probe sequence of the transmission; for timer slots, the scheduling event's cause (see ScheduleTimer)
	msgFree    []int32   // free slots in msgs
	delayIsMax bool      // devirtualized fast path for the default DelayMax
	stats      Stats
	classes    []Class      // interned class names, index = class ID
	classStats []ClassStats // dense per-class accounting, same index
	classIdx   map[Class]int
	traces     map[string][]TracePoint
	eventLimit int64
	congested  bool
	ran        bool
	ctxs       []nodeCtx
	obs        Observer    // nil unless WithObserver installed one
	faults     *faultState // nil unless WithFaults installed a plan

	// Deferred configuration, recorded by Options and acted on once at
	// finalize. Options are pure setters on these fields so that an
	// option list can be applied to a probe Network (to discover the
	// pool) and then replayed onto a pooled instance without running
	// any side effect twice.
	wrapFns       []func([]Process) []Process // WithProcessWrapper, in application order
	pendingFaults *FaultPlan                  // WithFaults plan, installed at finalize
	fdownMarked   bool                        // neighbor index carries fdown marks to clear on Reset
	pool          *Pool                       // WithPool: release target after Run
}

// NewNetwork creates a network running procs[v] at vertex v.
//
// When the option list carries WithPool and the pool holds an idle
// Network built on the same *graph.Graph, that instance is Reset and
// returned instead of allocating a new one: its event heap, payload
// arena, neighbor index and accounting slices are reused, so a sweep
// of many runs over one substrate pays the construction cost once.
func NewNetwork(g *graph.Graph, procs []Process, opts ...Option) (*Network, error) {
	if len(procs) != g.N() {
		return nil, fmt.Errorf("sim: %d processes for %d vertices", len(procs), g.N())
	}
	n := &Network{g: g, procs: procs}
	n.setDefaults()
	for _, o := range opts {
		o(n)
	}
	if n.pool != nil {
		if cached := n.pool.take(g); cached != nil {
			// Replay the option list onto the pooled instance. Options
			// are pure setters (side effects run once, at finalize), so
			// the probe application above configured nothing durable.
			if err := cached.Reset(procs, opts...); err != nil {
				return nil, err
			}
			return cached, nil
		}
	}
	n.initStorage()
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// setDefaults resets the run configuration to the documented defaults;
// Options then override them.
func (n *Network) setDefaults() {
	n.delay = DelayMax{}
	n.seed = 1
	n.eventLimit = 50_000_000
	n.congested = false
	n.obs = nil
	n.wrapFns = nil
	n.pendingFaults = nil
	n.pool = nil
}

// initStorage allocates the run-independent heavy state: event heap,
// payload arena, neighbor index, accounting slices and per-node
// contexts. Runs once per Network; Reset reuses all of it.
func (n *Network) initStorage() {
	g := n.g
	n.lastArrive = make([]int64, 2*g.M())
	n.traces = make(map[string][]TracePoint)
	// Pre-size the queue and payload arena for the common regime of a
	// few in-flight messages per edge; both still grow on demand.
	n.queue = *pq.NewHeap[event](2 * g.M())
	n.msgs = make([]Message, 0, 2*g.M())
	n.msgSeq = make([]int64, 0, 2*g.M())
	n.stats.UsedEdges = make([]bool, g.M())
	n.classes = make([]Class, 0, nClassHint)
	n.classStats = make([]ClassStats, 0, nClassHint)
	n.classIdx = make(map[Class]int, nClassHint)
	for _, c := range [...]Class{ClassProto, ClassAck, ClassSync, ClassControl} {
		n.internClass(c)
	}
	n.buildNeighborIndex()
	n.ctxs = make([]nodeCtx, g.N())
	for v := range n.ctxs {
		n.ctxs[v] = nodeCtx{net: n, id: graph.NodeID(v)}
	}
}

// finalize acts on the configuration the Options recorded: it runs the
// deferred process wrappers in order, installs the fault plan (the
// neighbor index exists by now, so down-window edges can be marked),
// and resolves the devirtualized DelayMax fast path. Called exactly
// once per NewNetwork or Reset.
func (n *Network) finalize() error {
	for _, wrap := range n.wrapFns {
		ps := wrap(n.procs)
		if len(ps) != len(n.procs) {
			panic(fmt.Sprintf("sim: WithProcessWrapper returned %d processes for %d vertices", len(ps), len(n.procs)))
		}
		n.procs = ps
	}
	n.wrapFns = nil
	if p := n.pendingFaults; p != nil {
		n.pendingFaults = nil
		n.installFaults(*p)
	}
	if _, ok := n.delay.(DelayMax); ok {
		// The default maximal adversary is a pure d = w(e): skip the
		// per-send interface dispatch. It draws nothing from the RNG,
		// so the fast path cannot shift the random stream.
		n.delayIsMax = true
	}
	return nil
}

// Reset returns the Network to its just-constructed state over the
// same graph, with fresh processes and options, reusing every
// allocation the previous run grew: the event heap, the payload arena
// and its free list, the neighbor index, the FIFO floors and the dense
// accounting slices. A Reset Network runs byte-identically to a
// freshly built one (pinned by the fresh-vs-reused golden tests).
//
// Reset invalidates the *Stats returned by the previous Run and any
// trace slices obtained from it: copy what you need before resetting.
// Configuration does not carry over — the option list passed here is
// the network's entire configuration, exactly as with NewNetwork.
func (n *Network) Reset(procs []Process, opts ...Option) error {
	if len(procs) != n.g.N() {
		return fmt.Errorf("sim: Reset: %d processes for %d vertices", len(procs), n.g.N())
	}
	n.resetRunState()
	n.setDefaults()
	n.procs = procs
	for _, o := range opts {
		o(n)
	}
	return n.finalize()
}

// resetRunState clears everything a run mutates while keeping the
// backing storage: the counters, heap elements, arena payloads (so the
// GC can reclaim them), FIFO floors, accounting, and fault marks.
func (n *Network) resetRunState() {
	n.queue.Reset()
	n.now = 0
	n.sendSeq = 0
	n.curCause = 0
	clear(n.lastArrive)
	clear(n.msgs) // release payload references before truncating
	n.msgs = n.msgs[:0]
	n.msgSeq = n.msgSeq[:0]
	n.msgFree = n.msgFree[:0]
	n.delayIsMax = false
	used := n.stats.UsedEdges
	clear(used)
	n.stats = Stats{UsedEdges: used}
	// Interned classes persist (IDs are internal; accounting restarts).
	for i := range n.classStats {
		n.classStats[i] = ClassStats{}
	}
	// A fresh map, not clear(): trace slices handed out by the previous
	// run must stay valid for their holders.
	n.traces = make(map[string][]TracePoint)
	for v := range n.ctxs {
		n.ctxs[v].seq = 0
		n.ctxs[v].rng = nil
	}
	if n.fdownMarked {
		for v := range n.nbr {
			for i := range n.nbr[v] {
				n.nbr[v][i].fdown = 0
			}
		}
		n.fdownMarked = false
	}
	n.faults = nil
	n.ran = false
}

// buildNeighborIndex precomputes, for every vertex, its half-edges
// sorted by neighbor, so send resolves a (from, to) pair by binary
// search instead of an O(degree) adjacency scan. The index is built
// with two stable counting passes straight off the edge list — O(n+m),
// no comparison sort — and parallel edges keep edge-ID order, so the
// leftmost match is the edge the old adjacency scan picked.
func (n *Network) buildNeighborIndex() {
	g := n.g
	nv, m2 := g.N(), 2*g.M()
	n.nbr = make([][]halfEdge, nv)

	// dhalf is a directed half-edge during the build.
	type dhalf struct {
		from, to int32
		w        int64
		did      int32
		eid      graph.EdgeID
	}

	// Pass 1: counting sort all directed halves by destination. Edges
	// are visited in ID order, so the sort's stability keeps parallel
	// edges ID-ordered.
	cnt := make([]int32, nv+1)
	for _, e := range g.Edges() {
		cnt[e.V+1]++ // half e.U -> e.V
		cnt[e.U+1]++ // half e.V -> e.U
	}
	for v := 0; v < nv; v++ {
		cnt[v+1] += cnt[v]
	}
	byTo := make([]dhalf, m2)
	for i, e := range g.Edges() {
		p := cnt[e.V]
		cnt[e.V]++
		byTo[p] = dhalf{from: int32(e.U), to: int32(e.V), w: e.W, did: 2 * int32(i), eid: e.ID}
		p = cnt[e.U]
		cnt[e.U]++
		byTo[p] = dhalf{from: int32(e.V), to: int32(e.U), w: e.W, did: 2*int32(i) + 1, eid: e.ID}
	}

	// Pass 2: scatter the to-sorted halves into per-source buckets;
	// each bucket receives its entries already sorted by destination.
	pos := make([]int32, nv+1)
	for v := 0; v < nv; v++ {
		pos[v+1] = pos[v] + int32(g.Degree(graph.NodeID(v)))
	}
	backing := make([]halfEdge, m2)
	for v := 0; v < nv; v++ {
		n.nbr[v] = backing[pos[v]:pos[v+1]:pos[v+1]]
	}
	for _, d := range byTo {
		backing[pos[d.from]] = halfEdge{to: graph.NodeID(d.to), w: d.w, did: d.did, eid: d.eid}
		pos[d.from]++
	}
}

// internClass returns the dense ID for a class, allocating one on first
// sight. The four standard classes are interned at construction.
func (n *Network) internClass(c Class) int {
	if id, ok := n.classIdx[c]; ok {
		return id
	}
	id := len(n.classes)
	n.classes = append(n.classes, c)
	n.classStats = append(n.classStats, ClassStats{})
	n.classIdx[c] = id
	return id
}

// classID is the hot-path class lookup: the standard classes resolve by
// constant-string comparison (pointer-equal for the package constants),
// protocol-defined classes fall back to the interning map.
//
//costsense:hotpath
func (n *Network) classID(c Class) int {
	switch c {
	case ClassProto:
		return 0
	case ClassAck:
		return 1
	case ClassSync:
		return 2
	case ClassControl:
		return 3
	}
	return n.internClass(c)
}

// nodeSeed splits the network seed into vertex v's private stream seed
// with one splitmix64-style finalizing round. The mixing function is
// part of the determinism contract — golden tests pin run results
// derived from these streams, so changing it invalidates every
// recorded baseline (a deliberate, one-time re-pin, as when the
// engine moved from one sequential stream to per-node streams).
func nodeSeed(seed int64, v int32) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(uint32(v))+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// needNodeRNG reports whether any per-event code path of this
// configuration can draw randomness: a delay model other than the
// non-drawing DelayMax/DelayUnit, or a fault plan with probabilistic
// drops or duplicates. When false, no stream is ever touched and
// materializeRNGs leaves every per-node rng nil, so the default
// configurations allocate no RNG state at all.
func (n *Network) needNodeRNG() bool {
	if n.faults != nil && (n.faults.drop > 0 || n.faults.dup > 0) {
		return true
	}
	if n.delayIsMax {
		return false
	}
	if _, ok := n.delay.(DelayUnit); ok {
		return false
	}
	return true
}

// materializeRNGs builds the per-node RNG streams when the
// configuration can draw randomness. Cold path: runs once per Run,
// before any Init.
func (n *Network) materializeRNGs() {
	if !n.needNodeRNG() {
		return
	}
	for v := range n.ctxs {
		n.ctxs[v].rng = rand.New(rand.NewSource(nodeSeed(n.seed, int32(v))))
	}
}

// nodeCtx implements Context for one vertex. It also carries the
// vertex's two pieces of engine-owned local state: the per-node push
// sequence (the event tie-break) and the per-node RNG stream. Both
// live here rather than on the Network so that a run allocates nothing
// extra for them (the ctxs slice already exists).
type nodeCtx struct {
	net *Network
	id  graph.NodeID
	seq int64      // per-node push counter: transmissions (incl. dropped), duplicates, timers
	rng *rand.Rand // per-node stream split from the network seed; nil when no draw can happen
}

var _ Context = (*nodeCtx)(nil)

func (c *nodeCtx) ID() graph.NodeID        { return c.id }
func (c *nodeCtx) Now() int64              { return c.net.now }
func (c *nodeCtx) Graph() *graph.Graph     { return c.net.g }
func (c *nodeCtx) Neighbors() []graph.Half { return c.net.g.Adj(c.id) }
func (c *nodeCtx) Send(to graph.NodeID, m Message) {
	c.net.send(c.id, to, m, ClassProto)
}
func (c *nodeCtx) SendClass(to graph.NodeID, m Message, cl Class) {
	c.net.send(c.id, to, m, cl)
}
func (c *nodeCtx) Record(key string, value int64) {
	c.net.traces[key] = append(c.net.traces[key], TracePoint{Node: c.id, Time: c.net.now, Value: value})
	if c.net.obs != nil {
		c.net.obs.OnRecord(c.id, c.net.now, key, value)
	}
}

// TimerContext is the optional timer capability of a Context. The
// engine's nodeCtx implements it; adapter layers that need wake-ups
// without a peer message (retransmission timeouts in internal/reliable)
// discover it by type assertion, so the core Context interface — and
// every existing protocol — is untouched.
type TimerContext interface {
	// ScheduleTimer delivers m back to this node after delay time
	// units (minimum 1). Timers are free — no communication is
	// accounted and no Observer send/deliver probes fire — but each
	// firing consumes one event from the WithEventLimit budget, so
	// timer loops cannot hang a run.
	ScheduleTimer(delay int64, m Message)
}

var _ TimerContext = (*nodeCtx)(nil)

// ScheduleTimer implements TimerContext. The timer slot's msgSeq entry
// holds the *current causal parent* rather than a probe sequence:
// timers never reach OnSend/OnDeliver, so when the timer fires the
// stored value becomes curCause directly and the happens-before chain
// collapses across the (free) timer hop.
//
//costsense:hotpath
func (c *nodeCtx) ScheduleTimer(delay int64, m Message) {
	if delay < 1 {
		delay = 1
	}
	n := c.net
	c.seq++
	slot := n.allocSlot(m, n.curCause)
	n.queue.Push(event{at: n.now + delay, seq: c.seq, to: int32(c.id), from: int32(c.id), msgIdx: slot, flags: flagTimer})
	n.stats.Timers++
}

// half resolves the directed half-edge from -> to, or nil when the
// vertices are not adjacent. Leftmost binary search: parallel edges
// resolve to the lowest edge ID.
//
//costsense:hotpath
func (n *Network) half(from, to graph.NodeID) *halfEdge {
	idx := n.nbr[from]
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(idx) || idx[lo].to != to {
		return nil
	}
	return &idx[lo]
}

// send is the per-message hot path: resolve the half-edge, account the
// cost, consult the fault adversary, pick the delay, and schedule the
// delivery — no allocations beyond amortized growth of the queue and
// the payload arena. Without WithFaults the fault adversary is one nil
// check and the RNG stream is untouched.
//
//costsense:hotpath
func (n *Network) send(from, to graph.NodeID, m Message, cl Class) {
	h := n.half(from, to)
	if h == nil {
		//costsense:alloc-ok cold path: a non-neighbor send is a protocol bug and panics immediately
		panic(fmt.Sprintf("sim: node %d sent to non-neighbor %d", from, to))
	}
	nc := &n.ctxs[from]
	w := h.w
	n.stats.UsedEdges[h.eid] = true
	n.stats.Messages++
	n.stats.Comm += w
	ci := n.classID(cl)
	n.classStats[ci].Messages++
	n.classStats[ci].Comm += w

	if n.faults != nil {
		if reason := n.faults.dropSend(h, n.now, nc.rng); reason != 0 {
			// The transmission is paid for (the sender spent its w(e)
			// on the wire) but never scheduled. It still consumes one
			// per-node push sequence so the sender's stream of
			// (seq, RNG) state is a pure function of its own sends,
			// fault outcomes included.
			nc.seq++
			n.stats.Dropped++
			n.sendSeq++
			if n.obs != nil {
				n.obs.OnSend(SendEvent{
					Time: n.now, Arrive: n.now, Delay: 0, Seq: n.sendSeq, Cause: n.curCause, W: w,
					From: from, To: to, Edge: h.eid, Class: cl,
				}, m)
				n.obs.OnDrop(DropEvent{
					Time: n.now, Seq: n.sendSeq, W: w,
					From: from, To: to, Edge: h.eid, Class: cl, Reason: reason,
				}, m)
			}
			return
		}
	}
	n.schedule(h, nc, to, m, cl, 0)
	if n.faults != nil && n.faults.dup > 0 && nc.rng.Float64() < n.faults.dup {
		// Duplicate: a second, independent copy of the same payload.
		// It draws its own delay but shares the FIFO floor, so it
		// arrives at or after the original. The copy is not accounted
		// — the adversary injected it, the protocol didn't pay for it.
		n.stats.Duplicated++
		n.schedule(h, nc, to, m, cl, flagDup)
	}
}

// schedule enqueues one transmission on the resolved half-edge: draw
// the delay, apply FIFO/congestion ordering, place the payload in the
// arena and fire the OnSend probe.
//
//costsense:hotpath
func (n *Network) schedule(h *halfEdge, nc *nodeCtx, to graph.NodeID, m Message, cl Class, flags uint8) {
	var d int64
	if n.delayIsMax {
		d = h.w
	} else {
		d = n.delay.Delay(n.g.Edge(h.eid), nc.rng)
	}
	last := n.lastArrive[h.did]
	var at int64
	if n.congested {
		// Capacitated link: the edge carries one message at a time,
		// each occupying it for its delay.
		start := n.now
		if last > start {
			start = last
		}
		at = start + d
	} else {
		at = n.now + d
		if at < last {
			at = last // FIFO per directed edge
		}
	}
	n.lastArrive[h.did] = at
	nc.seq++
	n.sendSeq++
	slot := n.allocSlot(m, n.sendSeq)
	n.queue.Push(event{at: at, seq: nc.seq, to: int32(to), from: int32(nc.id), msgIdx: slot, flags: flags})
	if n.obs != nil {
		// SendEvent is all scalars and passed by value: the probe adds
		// one branch and no allocation to the unobserved path.
		n.obs.OnSend(SendEvent{
			Time: n.now, Arrive: at, Delay: d, Seq: n.sendSeq, Cause: n.curCause, W: h.w,
			From: nc.id, To: to, Edge: h.eid, Class: cl, Dup: flags&flagDup != 0,
		}, m)
	}
}

// allocSlot places a payload in the arena, reusing a freed slot when
// one exists, and records its probe sequence (0 for timers).
//
//costsense:hotpath
func (n *Network) allocSlot(m Message, seq int64) int32 {
	if k := len(n.msgFree); k > 0 {
		slot := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		n.msgs[slot] = m
		n.msgSeq[slot] = seq
		return slot
	}
	n.msgs = append(n.msgs, m)
	n.msgSeq = append(n.msgSeq, seq)
	return int32(len(n.msgs) - 1)
}

// Run initializes every process at time 0 and drives the event queue to
// quiescence. It returns the accumulated statistics. Run may be called
// once per Network (use Reset to run again); a second call returns an
// error.
//
// When the Network was built with WithPool, Run releases it back to
// the pool after the run, so the next NewNetwork over the same graph
// reuses its storage — which also means the returned *Stats is only
// valid until that reuse; pooled callers must copy what they need
// before starting another run from the same goroutine.
func (n *Network) Run() (*Stats, error) {
	if n.ran {
		return nil, fmt.Errorf("sim: Run called twice on the same Network (use Reset to rerun)")
	}
	st, err := n.run()
	if n.pool != nil {
		n.pool.put(n)
	}
	return st, err
}

// run is the once-per-Reset execution: Init every process, then drive
// the event loop to quiescence.
//
//costsense:hotpath
func (n *Network) run() (*Stats, error) {
	n.ran = true
	n.materializeRNGs()
	for v := range n.procs {
		if n.faults != nil && n.faults.crashAt[v] <= 0 {
			continue // fail-stop at t <= 0: the node never starts
		}
		n.procs[v].Init(&n.ctxs[v])
	}
	for n.queue.Len() > 0 {
		if n.stats.Events >= n.eventLimit {
			//costsense:alloc-ok cold path: constructing the divergence error, run over
			return nil, &ErrEventLimit{Limit: n.eventLimit, LastTime: n.now, InFlight: n.queue.Len()}
		}
		ev := n.queue.Pop()
		n.now = ev.at
		n.stats.Events++
		if n.faults != nil {
			n.faults.observeUpTo(n, ev.at)
		}
		m := n.msgs[ev.msgIdx]
		sseq := n.msgSeq[ev.msgIdx]
		// Causal parent for any sends this event's Handle issues: the
		// delivery's own probe seq, or — for timer slots — the stored
		// cause of the event that scheduled the timer (see
		// ScheduleTimer). Unconditional scalar store; no branch, no
		// alloc, so the nil-observer hot path is unchanged.
		n.curCause = sseq
		n.msgs[ev.msgIdx] = nil
		n.msgFree = append(n.msgFree, ev.msgIdx)
		if n.faults != nil && n.faults.crashAt[ev.to] <= n.now {
			// Fail-stop destination: the message is lost on arrival.
			if ev.flags&flagTimer != 0 {
				continue // a crashed node's timer fires into the void
			}
			n.stats.DeadLetters++
			if n.obs != nil {
				h := n.half(graph.NodeID(ev.from), graph.NodeID(ev.to))
				n.obs.OnDrop(DropEvent{
					Time: n.now, Seq: sseq, W: h.w,
					From: graph.NodeID(ev.from), To: graph.NodeID(ev.to), Edge: h.eid,
					Reason: DropCrash,
				}, m)
			}
			continue
		}
		if ev.flags&flagTimer != 0 {
			// Self-scheduled timer: free, never a transmission, so no
			// OnDeliver probe; it still burns one Events unit.
			n.procs[ev.to].Handle(&n.ctxs[ev.to], graph.NodeID(ev.to), m)
			continue
		}
		if n.obs != nil {
			// Re-resolve the half-edge: send always picks the leftmost
			// (lowest-ID) parallel edge, so this lookup reproduces the
			// edge the message actually used, deterministically.
			h := n.half(graph.NodeID(ev.from), graph.NodeID(ev.to))
			n.obs.OnDeliver(DeliverEvent{
				Time: ev.at, Seq: sseq, W: h.w,
				From: graph.NodeID(ev.from), To: graph.NodeID(ev.to), Edge: h.eid,
				Dup: ev.flags&flagDup != 0,
			}, m)
		}
		n.procs[ev.to].Handle(&n.ctxs[ev.to], graph.NodeID(ev.from), m)
	}
	if n.faults != nil {
		// Flush fault activations past the last event so OnCrash and
		// OnLinkDown fire exactly once per scheduled fault per run,
		// keeping exports independent of where the run happened to end.
		n.faults.observeUpTo(n, math.MaxInt64)
	}
	n.stats.FinishTime = n.now
	//costsense:alloc-ok run epilogue: builds the public per-class view once, after the event loop
	n.materializeByClass()
	if n.obs != nil {
		n.obs.OnQuiesce(&n.stats)
	}
	return &n.stats, nil
}

// materializeByClass builds the public per-class view from the dense
// counters. Only classes that carried traffic appear; a run that sent
// nothing keeps ByClass nil instead of allocating an empty map
// (lookups and accessors read nil maps fine).
func (n *Network) materializeByClass() {
	if n.stats.Messages == 0 {
		return
	}
	n.stats.ByClass = make(map[Class]ClassStats, len(n.classes))
	for i, cs := range n.classStats {
		if cs.Messages > 0 {
			n.stats.ByClass[n.classes[i]] = cs
		}
	}
}

// Trace returns the recorded points for a key, in delivery order.
func (n *Network) Trace(key string) []TracePoint { return n.traces[key] }

// Traces returns every recorded trace key in sorted order, so exports
// that walk all keys never depend on map iteration order.
func (n *Network) Traces() []string {
	keys := make([]string, 0, len(n.traces))
	for k := range n.traces { //costsense:nondet-ok keys are sorted below before anything observes them
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Run is a convenience wrapper: build a network and run it.
func Run(g *graph.Graph, procs []Process, opts ...Option) (*Stats, error) {
	n, err := NewNetwork(g, procs, opts...)
	if err != nil {
		return nil, err
	}
	return n.Run()
}
