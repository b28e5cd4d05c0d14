// Command benchjson converts `go test -bench` output for the engine
// benchmarks into BENCH_sim.json. It reads the benchmark output on
// stdin, averages the BenchmarkEngineFlood (nil observer),
// BenchmarkEngineObserved (metrics observer attached),
// BenchmarkEngineCausal (causal observer attached),
// BenchmarkEngineFaulty (fault plan active), the million-node
// BenchmarkEngineBigFlood and the sweep pair lines, and emits a JSON
// document holding the frozen pre-optimization baseline (the
// container/heap + map engine, measured on the same workload before
// the rewrite), the current numbers, the improvement ratios, and the
// measured observer / fault-injection / sweep deltas.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkEngine...' -benchmem -count 3 . | go run ./scripts/benchjson > BENCH_sim.json
//
// Recompute mode re-derives every ratio block (improvement,
// observer_overhead, causal_overhead, fault_overhead, sweep_speedup) from the
// measured fields already committed in an existing document, leaving
// the measurements themselves untouched:
//
//	go run ./scripts/benchjson -recompute BENCH_sim.json > BENCH_sim.json.new
//
// CI pipes the committed file through recompute and diffs: a document
// whose ratio strings do not match its own baseline/current numbers
// (someone edited one without the other) fails the build instead of
// advertising a stale speedup.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// run is one measured configuration of the engine benchmark.
type run struct {
	Engine       string  `json:"engine"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// baseline is the seed engine (container/heap event queue, any-boxed
// events, map-based per-edge and per-class accounting) on the same
// workload and machine; regenerate by checking out the seed commit and
// re-running the pipeline above.
var baseline = run{
	Engine:       "container/heap + any-boxed events + map accounting (seed)",
	NsPerOp:      65912273,
	EventsPerSec: 1137892,
	AllocsPerOp:  155573,
	BytesPerOp:   26141496,
}

// derive computes every ratio block of the document from its measured
// runs. It is the single source of derived numbers: both fresh
// measurement and -recompute go through it, so the committed ratio
// strings can never legitimately disagree with the committed fields.
func derive(doc map[string]any, base, flood, observed, causal, faulty, sweepFresh, sweepPooled *run) {
	doc["improvement"] = map[string]string{
		"events_per_sec": fmt.Sprintf("%.2fx", flood.EventsPerSec/base.EventsPerSec),
		"allocs_per_op":  fmt.Sprintf("%.1fx fewer", base.AllocsPerOp/flood.AllocsPerOp),
		"bytes_per_op":   fmt.Sprintf("%.1fx fewer", base.BytesPerOp/flood.BytesPerOp),
	}
	if observed != nil {
		doc["observer_overhead"] = map[string]string{
			"ns_per_op":     fmt.Sprintf("%+.1f%%", (observed.NsPerOp/flood.NsPerOp-1)*100),
			"allocs_per_op": fmt.Sprintf("%.0f (amortized per run, not per event)", observed.AllocsPerOp),
		}
	}
	if causal != nil {
		doc["causal_overhead"] = map[string]string{
			"ns_per_op":     fmt.Sprintf("%+.1f%% (DAG recording + one critical-path extraction per run)", (causal.NsPerOp/flood.NsPerOp-1)*100),
			"allocs_per_op": fmt.Sprintf("%.0f (amortized per run, not per event)", causal.AllocsPerOp),
		}
	}
	if faulty != nil {
		doc["fault_overhead"] = map[string]string{
			"ns_per_op": fmt.Sprintf("%+.1f%% (informational; workload shrinks as drops prune the flood)", (faulty.NsPerOp/flood.NsPerOp-1)*100),
		}
	}
	if sweepFresh != nil && sweepPooled != nil {
		doc["sweep_speedup"] = map[string]string{
			"wall_clock":   fmt.Sprintf("%.2fx faster sweep with cached substrate + pooled Reset", sweepFresh.NsPerOp/sweepPooled.NsPerOp),
			"bytes_per_op": fmt.Sprintf("%.1fx fewer", sweepFresh.BytesPerOp/sweepPooled.BytesPerOp),
		}
	}
}

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "-recompute" {
		if err := recompute(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	runs, n, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc := map[string]any{
		"benchmark": "BenchmarkEngineFlood",
		"workload":  "flooding on RandomConnected(5000, 40000, UniformWeights(64, 21), 21), DelayMax, 75001 events/op",
		"samples":   n,
		"baseline":  baseline,
		"current":   runs.flood,
	}
	if runs.observed != nil {
		doc["observed"] = runs.observed
	}
	if runs.causal != nil {
		doc["causal"] = runs.causal
	}
	if runs.faulty != nil {
		doc["faulty"] = runs.faulty
	}
	if runs.bigFlood != nil {
		doc["big_flood"] = runs.bigFlood
		doc["big_flood_workload"] = "flooding on BigFlood(1_000_000 nodes, 10_000_000 edges), DelayMax"
	}
	if runs.sweepFresh != nil {
		doc["sweep_fresh"] = runs.sweepFresh
	}
	if runs.sweepPooled != nil {
		doc["sweep_pooled"] = runs.sweepPooled
		doc["sweep_workload"] = "100-trial flood sweep on RandomConnected(2000, 6000, UniformWeights(64, 21), 21); fresh rebuilds graph+network per trial, pooled shares one substrate and recycles networks via sim.Pool (the `costsense serve` job shape)"
	}
	derive(doc, &baseline, runs.flood, runs.observed, runs.causal, runs.faulty, runs.sweepFresh, runs.sweepPooled)
	emit(doc)
}

func emit(doc map[string]any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// recompute reads an existing BENCH_sim.json (file argument or stdin),
// re-derives the ratio blocks from its measured fields, and writes the
// full document to stdout. Keys it does not understand pass through
// unchanged.
func recompute(args []string) error {
	in := os.Stdin
	if len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var doc map[string]any
	dec := json.NewDecoder(in)
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	pick := func(key string) (*run, error) {
		raw, ok := doc[key]
		if !ok {
			return nil, nil
		}
		b, err := json.Marshal(raw)
		if err != nil {
			return nil, err
		}
		r := &run{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("field %q: %w", key, err)
		}
		// Re-install the typed struct so the emitted field order is the
		// fresh-measurement order, keeping recompute output diffable
		// against a freshly generated document.
		doc[key] = r
		return r, nil
	}
	base, err := pick("baseline")
	if err != nil {
		return err
	}
	flood, err := pick("current")
	if err != nil {
		return err
	}
	if base == nil || flood == nil {
		return fmt.Errorf("document lacks baseline/current fields")
	}
	observed, err := pick("observed")
	if err != nil {
		return err
	}
	causal, err := pick("causal")
	if err != nil {
		return err
	}
	faulty, err := pick("faulty")
	if err != nil {
		return err
	}
	if _, err := pick("big_flood"); err != nil {
		return err
	}
	sweepFresh, err := pick("sweep_fresh")
	if err != nil {
		return err
	}
	sweepPooled, err := pick("sweep_pooled")
	if err != nil {
		return err
	}
	derive(doc, base, flood, observed, causal, faulty, sweepFresh, sweepPooled)
	emit(doc)
	return nil
}

// engineRuns aggregates the averaged benchmark lines by configuration.
type engineRuns struct {
	flood       *run
	observed    *run
	causal      *run
	faulty      *run
	bigFlood    *run
	sweepFresh  *run
	sweepPooled *run
}

// parse averages every recognized BenchmarkEngine* line in r. A line
// looks like:
//
//	BenchmarkEngineFlood  5  35424437 ns/op  75001 events/op  2117225 events/sec  11421680 B/op  5049 allocs/op
func parse(r io.Reader) (*engineRuns, int, error) {
	type acc struct {
		run
		n int
	}
	var flood, obs, cau, flt, big, swf, swp acc
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "BenchmarkEngine") {
			continue
		}
		vals := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad value %q in %q", f[i], sc.Text())
			}
			vals[f[i+1]] = v
		}
		var a *acc
		switch {
		case strings.HasPrefix(f[0], "BenchmarkEngineFlood"):
			a = &flood
		case strings.HasPrefix(f[0], "BenchmarkEngineObserved"):
			a = &obs
		case strings.HasPrefix(f[0], "BenchmarkEngineCausal"):
			a = &cau
		case strings.HasPrefix(f[0], "BenchmarkEngineFaulty"):
			a = &flt
		case strings.HasPrefix(f[0], "BenchmarkEngineBigFlood"):
			a = &big
		case strings.HasPrefix(f[0], "BenchmarkEngineSweepFresh"):
			a = &swf
		case strings.HasPrefix(f[0], "BenchmarkEngineSweepPooled"):
			a = &swp
		default:
			continue
		}
		a.NsPerOp += vals["ns/op"]
		a.EventsPerSec += vals["events/sec"]
		a.AllocsPerOp += vals["allocs/op"]
		a.BytesPerOp += vals["B/op"]
		a.n++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if flood.n == 0 {
		return nil, 0, fmt.Errorf("no BenchmarkEngineFlood lines on stdin")
	}
	avg := func(a *acc, engine string) *run {
		if a.n == 0 {
			return nil
		}
		a.Engine = engine
		a.NsPerOp /= float64(a.n)
		a.EventsPerSec /= float64(a.n)
		a.AllocsPerOp /= float64(a.n)
		a.BytesPerOp /= float64(a.n)
		r := a.run
		return &r
	}
	runs := &engineRuns{
		flood:       avg(&flood, "shared 4-ary heap + dense accounting (this tree)"),
		observed:    avg(&obs, "same engine, full metrics observer attached (BenchmarkEngineObserved)"),
		causal:      avg(&cau, "same engine, causal observer attached: happens-before DAG + critical path (BenchmarkEngineCausal)"),
		faulty:      avg(&flt, "same engine, fault plan active: drop 5%, dup 2%, one outage, one crash (BenchmarkEngineFaulty)"),
		bigFlood:    avg(&big, "same engine on the million-node flood (BenchmarkEngineBigFlood)"),
		sweepFresh:  avg(&swf, "100-trial sweep, graph and network rebuilt every trial (BenchmarkEngineSweepFresh)"),
		sweepPooled: avg(&swp, "100-trial sweep, one shared substrate + pooled network Reset (BenchmarkEngineSweepPooled)"),
	}
	return runs, flood.n, nil
}
