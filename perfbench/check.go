package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"costsense/internal/obs"
	"costsense/internal/serve"
)

// checkResult holds one served result to everything that can be known
// without re-running it: the bytes are the canonical encoding of a
// serve.Result (so a truncated or reformatted body fails), the echoed
// spec is the submitted one, there is one row per trial with the
// trial's seed, the aggregate and per-class sums add up, the trial-0
// metrics export describes the same graph and run, and a fault-free
// flood, dfs or conhybrid reached every vertex.
func checkResult(spec serve.Spec, body []byte) (*serve.Result, error) {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, fmt.Errorf("result is empty or does not end in a newline (%d bytes)", len(body))
	}
	var res serve.Result
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("result does not decode: %w", err)
	}
	canon, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("re-encoding result: %w", err)
	}
	if !bytes.Equal(append(canon, '\n'), body) {
		return nil, fmt.Errorf("result bytes are not the canonical encoding of what they decode to (%d bytes, canonical %d)", len(body), len(canon)+1)
	}

	want, _ := json.Marshal(spec)
	got, _ := json.Marshal(res.Spec)
	if !bytes.Equal(want, got) {
		return nil, fmt.Errorf("result echoes spec %s, submitted %s", got, want)
	}
	if res.Substrate.Key != spec.SubstrateKey() {
		return nil, fmt.Errorf("substrate key %q, spec's is %q", res.Substrate.Key, spec.SubstrateKey())
	}
	if len(res.Trials) != spec.Trials {
		return nil, fmt.Errorf("%d trial rows, spec asks for %d", len(res.Trials), spec.Trials)
	}

	agg := serve.Aggregate{Trials: len(res.Trials), AllSpan: true}
	for i, r := range res.Trials {
		if r.Trial != i || r.Seed != spec.Seed+int64(i) {
			return nil, fmt.Errorf("row %d is trial %d with seed %d, want seed %d", i, r.Trial, r.Seed, spec.Seed+int64(i))
		}
		var msgs, comm int64
		for _, c := range r.ByClass {
			msgs += c.Messages
			comm += c.Comm
		}
		if msgs != r.Messages || comm != r.Comm {
			return nil, fmt.Errorf("trial %d: by_class sums to %d messages / %d comm, row says %d / %d", i, msgs, comm, r.Messages, r.Comm)
		}
		if spec.Faults == nil && reaches(spec.Experiment) && !r.Spans {
			return nil, fmt.Errorf("trial %d: fault-free %s did not reach every vertex", i, spec.Experiment)
		}
		agg.SumMessages += r.Messages
		agg.SumComm += r.Comm
		agg.SumEvents += r.Events
		agg.MaxTime = max(agg.MaxTime, r.Time)
		agg.AllSpan = agg.AllSpan && r.Spans
	}
	if agg != res.Aggregate {
		return nil, fmt.Errorf("aggregate %+v, rows sum to %+v", res.Aggregate, agg)
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(res.Metrics, &snap); err != nil {
		return nil, fmt.Errorf("trial-0 metrics do not decode: %w", err)
	}
	if snap.Nodes != res.Substrate.N || snap.EdgesTotal != res.Substrate.M || len(snap.Edges) != res.Substrate.M {
		return nil, fmt.Errorf("trial-0 metrics describe n=%d m=%d (%d edge rows), substrate is n=%d m=%d",
			snap.Nodes, snap.EdgesTotal, len(snap.Edges), res.Substrate.N, res.Substrate.M)
	}
	t0 := res.Trials[0]
	if snap.FinishTime != t0.Time {
		return nil, fmt.Errorf("trial-0 metrics finish at %d, trial 0 at %d", snap.FinishTime, t0.Time)
	}
	var edgeMsgs, edgeComm int64
	for _, e := range snap.Edges {
		edgeMsgs += e.Messages
		edgeComm += e.Comm
	}
	if spec.Faults == nil && (edgeMsgs != t0.Messages || edgeComm != t0.Comm) {
		return nil, fmt.Errorf("trial-0 edges carry %d messages / %d comm, trial 0 reports %d / %d", edgeMsgs, edgeComm, t0.Messages, t0.Comm)
	}
	return &res, nil
}

// reaches reports whether an experiment's answer is a spanning
// structure found by reaching every vertex.
func reaches(experiment string) bool {
	return experiment == "flood" || experiment == "dfs" || experiment == "conhybrid"
}

// shardFreeSum hashes a result with its shard count and the substrate
// key it implies zeroed: the sharded engine's contract is output
// byte-identical to the serial one, so a sharded run and its serial
// twin must hash alike.
func shardFreeSum(res *serve.Result) ([sha256.Size]byte, error) {
	r := *res
	r.Spec.Shards, r.Substrate.Key = 0, ""
	b, err := json.Marshal(&r)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}
