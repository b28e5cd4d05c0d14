package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"costsense/internal/serve"
)

// workload is one traffic mix. The job list is a pure function of the
// seed: job i's spec never depends on timing, so two commits given the
// same seed submit the same specs in the same order. Jobs come in
// blocks of balanced composition, and a run only stops at a block
// boundary, so every run sees the same mix whatever its job count.
type workload struct {
	name    string
	clients int // closed-loop clients, each with one connection at a time
	block   int // jobs per balanced block
	setups  int // set-ups per untraced run; setup_s is their median
	replays int // jobs per run replayed through the layers' public functions
	// fixedJobs is a job-order prefix every run completes, whatever
	// its speed. The prefix digest, peak_rss_mb and restart_s are taken
	// over these jobs, so they measure the same work on every commit.
	fixedJobs int
	// shared are the substrates every job draws from, warmed at set-up
	// with one untimed submission each (each spec names a distinct
	// substrate key).
	shared []serve.Spec
	// fresh returns the spec of job i, or ok=false when job i repeats
	// the spec of the earlier job first verbatim.
	fresh func(rng *rand.Rand, i int) (spec serve.Spec, first int, ok bool)
}

// Sizes of the three workloads. tiny shrinks every substrate and sweep
// so the benchmark's own tests run each workload in well under a
// second.
type sizes struct {
	sweepN, sweepTrials  int
	churnMinN, churnMaxN int
	bigN                 int
}

var fullSizes = sizes{sweepN: 500, sweepTrials: 16, churnMinN: 32, churnMaxN: 64, bigN: 8000}
var tinySizes = sizes{sweepN: 60, sweepTrials: 4, churnMinN: 12, churnMaxN: 24, bigN: 200}

func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case "sweep":
		return sweepWorkload(seed, sz), nil
	case "churn":
		return churnWorkload(seed, sz), nil
	case "bigrun":
		return bigrunWorkload(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have sweep, churn, bigrun)", name)
}

// sweepFaults is the `exp chaos` fault shape: message loss,
// duplication and one fail-stop crash, under the reliable layer. Only
// flood gets the crash: ghs and mstfast runs with a crashed node fail
// ("node 0 did not finish"), and the workload must not fail jobs.
func sweepFaults(experiment string, seed int64) *serve.FaultSpec {
	f := &serve.FaultSpec{Drop: 0.05, Dup: 0.02, Seed: seed}
	if experiment == "flood" {
		f.Crashes = 1
	}
	return f
}

// sweepWorkload: multi-trial sweeps of the message-light protocols on a
// handful of cached substrates. Each block of 8 jobs holds the 6
// experiment × delay pairs once, in a seeded order and spread evenly
// over the substrates, then verbatim repeats of two of them: 25% of
// jobs repeat an earlier spec. Two of the six fresh jobs carry faults.
// Which pairs are faulty and which repeat is the same in every block,
// so every run sees the same mix however many blocks it completes.
func sweepWorkload(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: "sweep", clients: 2, block: 8, setups: 5, replays: 3, fixedJobs: 16}
	for k := 0; k < 4; k++ {
		gs := serve.GraphSpec{
			Family: "random", N: sz.sweepN, M: 4 * sz.sweepN, Seed: 1 + rng.Int63n(1<<30),
			Weights: serve.WeightSpec{Kind: "uniform", Max: 64, Seed: 1 + rng.Int63n(1<<30)},
		}
		w.shared = append(w.shared, serve.Spec{Experiment: "flood", Graph: gs})
	}
	// Pairs are experiment*2 + delay: 0 flood/max, 1 flood/uniform,
	// 2 ghs/max, 3 ghs/uniform, 4 mstfast/max, 5 mstfast/uniform.
	exps := []string{"flood", "ghs", "mstfast"}
	delays := []string{"max", "uniform"}
	faulty := map[int]bool{0: true, 3: true}
	repeated := []int{0, 5}
	w.fresh = func(rng *rand.Rand, i int) (serve.Spec, int, bool) {
		b, pos := i/8, i%8
		perm := rand.New(rand.NewSource(seed ^ int64(b+1)*0x5851f42d)).Perm(6)
		if pos >= 6 {
			return serve.Spec{}, b*8 + slices.Index(perm, repeated[pos-6]), false
		}
		combo := perm[pos]
		s := serve.Spec{
			Experiment: exps[combo/2],
			Graph:      w.shared[(b+pos)%len(w.shared)].Graph,
			Delay:      delays[combo%2],
			Trials:     sz.sweepTrials,
			Seed:       1 + rng.Int63n(1<<30),
		}
		if faulty[combo] {
			s.Faults = sweepFaults(s.Experiment, 1+rng.Int63n(1<<30))
		}
		return s, i, true
	}
	return w
}

// churnWorkload: single-trial jobs of all eight experiments, each on a
// substrate no earlier job used. Each block of 8 runs every experiment
// once; an experiment's graph family cycles through the five families
// block by block.
func churnWorkload(seed int64, sz sizes) *workload {
	w := &workload{name: "churn", clients: 2, block: 8, setups: 101, replays: 16, fixedJobs: 128}
	exps := []string{"flood", "dfs", "mstcentr", "sptcentr", "conhybrid", "ghs", "mstfast", "msthybrid"}
	families := []string{"random", "grid", "ring", "hard", "heavychord"}
	delays := []string{"max", "uniform"}
	w.fresh = func(rng *rand.Rand, i int) (serve.Spec, int, bool) {
		b, pos := i/8, i%8
		brng := rand.New(rand.NewSource(seed ^ int64(b+1)*0x5851f42d))
		e := brng.Perm(8)[pos]
		n := sz.churnMinN + rng.Intn(sz.churnMaxN-sz.churnMinN)
		// Job i's generator parameters carry i itself, so no two jobs of
		// a run share a substrate key.
		uniq := seed*1_000_003 + int64(i) + 1
		weights := serve.WeightSpec{Kind: "uniform", Max: 64, Seed: uniq}
		var gs serve.GraphSpec
		switch families[(b+e)%len(families)] {
		case "random":
			gs = serve.GraphSpec{Family: "random", N: n, M: 4 * n, Seed: uniq, Weights: weights}
		case "grid":
			gs = serve.GraphSpec{Family: "grid", Rows: 8, Cols: n / 8, Weights: weights}
		case "ring":
			gs = serve.GraphSpec{Family: "ring", N: n, Weights: weights}
		case "hard":
			gs = serve.GraphSpec{Family: "hard", N: n, X: int64(n) + int64(i) + 1}
		case "heavychord":
			gs = serve.GraphSpec{Family: "heavychord", N: n, Heavy: int64(n) + int64(i) + 1}
		}
		return serve.Spec{
			Experiment: exps[e], Graph: gs, Delay: delays[rng.Intn(2)],
			Seed: 1 + rng.Int63n(1<<30),
		}, i, true
	}
	return w
}

// bigrunWorkload: single-trial flood and ghs on one large cached
// substrate, each spec submitted twice in a row, serial and with
// shards: 2. A block of 6 is two flood pairs and one ghs pair, in a
// seeded order. With two floods per ghs, the latency median falls
// inside the sharded floods and the 90th percentile inside the sharded
// ghs runs, not on the gap between two kinds of job, where it would
// jump from run to run.
func bigrunWorkload(seed int64, sz sizes) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: "bigrun", clients: 1, block: 6, setups: 3, replays: 2, fixedJobs: 6}
	gs := serve.GraphSpec{
		Family: "random", N: sz.bigN, M: 5 * sz.bigN, Seed: 1 + rng.Int63n(1<<30),
		Weights: serve.WeightSpec{Kind: "uniform", Max: 64, Seed: 1 + rng.Int63n(1<<30)},
	}
	w.shared = []serve.Spec{
		{Experiment: "flood", Graph: gs},
		{Experiment: "flood", Graph: gs, Shards: 2},
	}
	w.fresh = func(_ *rand.Rand, i int) (serve.Spec, int, bool) {
		b, pos := i/6, i%6
		exps := []string{"flood", "flood", "ghs"}
		rand.New(rand.NewSource(seed^int64(b+1)*0x5851f42d)).Shuffle(3, func(x, y int) { exps[x], exps[y] = exps[y], exps[x] })
		// The serial and sharded twins share the pair's run seed.
		s := 1 + rand.New(rand.NewSource(seed*31+int64(i/2))).Int63n(1<<30)
		spec := serve.Spec{Experiment: exps[pos/2], Graph: gs, Seed: s}
		if pos%2 == 1 {
			spec.Shards = 2
		}
		return spec, i, true
	}
	return w
}

// jobList memoizes the workload's job specs in index order. Job i
// draws from its own seeded stream, so a spec never depends on which
// jobs were generated before it.
type jobList struct {
	w    *workload
	seed int64

	mu    sync.Mutex
	specs []serve.Spec
	// firstOf maps a spec index to the first job with the same spec,
	// for the repeat checks and the duplicate-work ratio.
	firstOf []int
}

func newJobList(w *workload, seed int64) *jobList { return &jobList{w: w, seed: seed} }

// spec returns job i's normalized spec.
func (l *jobList) spec(i int) serve.Spec {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.specs) <= i {
		j := len(l.specs)
		rng := rand.New(rand.NewSource(l.seed*7_919 + int64(j)*104_729 + 17))
		s, first, ok := l.w.fresh(rng, j)
		if !ok {
			first = l.firstOf[first]
			s = l.specs[first]
		} else if err := s.Normalize(); err != nil {
			panic(fmt.Sprintf("perfbench: %s job %d has an invalid spec: %v", l.w.name, j, err))
		}
		l.specs = append(l.specs, s)
		l.firstOf = append(l.firstOf, first)
	}
	return l.specs[i]
}

// first returns the index of the first job whose spec job i repeats
// (i itself for a fresh spec). Valid once spec(i) was called.
func (l *jobList) first(i int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstOf[i]
}
