package obs

import (
	"bytes"
	"fmt"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/reliable"
	"costsense/internal/sim"
)

// The engine has one event loop; sim.WithShardAssignment survives only
// as a deprecated no-op for callers written against the removed sharded
// engine. Its contract is that such a caller exports exactly the serial
// bytes. The tests below pin that contract at the export layer, with
// the shard counts the sharded engine was checked at.

// exportTriple runs one observed case and returns its three export
// artifacts (metrics JSON, edge CSV, Chrome trace JSON) as byte
// slices.
func exportTriple(t *testing.T, c obsCase, extra ...sim.Option) (metrics, csv, trace []byte) {
	t.Helper()
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	m := NewMetrics(g)
	tr := NewTrace(g)
	opts := append([]sim.Option{sim.WithObserver(NewTee(m, tr))}, extra...)
	runCase(t, c, opts...)
	var mb, cb, tb bytes.Buffer
	if err := m.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteEdgeCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := tr.Export(&tb); err != nil {
		t.Fatal(err)
	}
	return mb.Bytes(), cb.Bytes(), tb.Bytes()
}

// shardedCases calls f once per case x fault plan x shard count, with
// the options every run of the case shares and the legacy shard option
// for that count.
func shardedCases(t *testing.T, f func(t *testing.T, c obsCase, common []sim.Option, legacy sim.Option)) {
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	for _, c := range obsCases() {
		for _, faulty := range []bool{false, true} {
			for _, shards := range []int{2, 4} {
				c, faulty, shards := c, faulty, shards
				name := fmt.Sprintf("%s/shards=%d", c.name, shards)
				if faulty {
					name += "/faulty"
				}
				t.Run(name, func(t *testing.T) {
					var common []sim.Option
					if faulty {
						opt, _ := reliable.Install(reliable.Config{})
						common = []sim.Option{opt, sim.WithFaults(faultyPlan(g)), sim.WithEventLimit(5_000_000)}
					}
					f(t, c, common, sim.WithShardAssignment(sim.ShardAssignment(g, shards)))
				})
			}
		}
	}
}

// TestShardedExportsByteIdentical: for every delay model, plain and
// congested, with and without a chaos plan, a run given a legacy shard
// assignment exports metrics JSON, edge CSV and Chrome trace JSON that
// are byte for byte the plain run's artifacts.
func TestShardedExportsByteIdentical(t *testing.T) {
	shardedCases(t, func(t *testing.T, c obsCase, common []sim.Option, legacy sim.Option) {
		sm, sc, st := exportTriple(t, c, common...)
		pm, pc, pt := exportTriple(t, c, append(common, legacy)...)
		if !bytes.Equal(sm, pm) {
			t.Error("sharded metrics JSON differs from serial")
		}
		if !bytes.Equal(sc, pc) {
			t.Error("sharded edge CSV differs from serial")
		}
		if !bytes.Equal(st, pt) {
			t.Error("sharded trace JSON differs from serial")
		}
	})
}

// TestShardedCausalExportsByteIdentical extends the same contract to the
// causal layer: a run given a legacy shard assignment exports the
// identical critical path — clean and faulty, every delay model.
func TestShardedCausalExportsByteIdentical(t *testing.T) {
	shardedCases(t, func(t *testing.T, c obsCase, common []sim.Option, legacy sim.Option) {
		sj, sc := causalPair(t, c, common...)
		pj, pc := causalPair(t, c, append(common, legacy)...)
		if !bytes.Equal(sj, pj) {
			t.Error("sharded critical-path JSON differs from serial")
		}
		if !bytes.Equal(sc, pc) {
			t.Error("sharded critical-path CSV differs from serial")
		}
	})
}
