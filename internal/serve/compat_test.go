package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Compatibility pins for specs and journals written while the service
// still ran shards > 1 on a sharded engine. The key and digest
// constants below were produced by that older server; they may never
// change.

// fixtureGraph is the substrate of the pre-unsharded journal fixture.
func fixtureGraph() GraphSpec {
	return GraphSpec{Family: "random", N: 12, M: 20, Weights: WeightSpec{Kind: "uniform", Max: 16, Seed: 3}, Seed: 3}
}

// TestSubstrateKeyGolden: serial specs keep the substrate keys earlier
// servers derived (results echo them), and a spec carrying shards keys
// as its serial twin, not as the sharded substrate it once named.
func TestSubstrateKeyGolden(t *testing.T) {
	key := func(s Spec) string {
		t.Helper()
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s.SubstrateKey()
	}
	if got, want := key(validSpec()), "9a3a330651a404b214b04810a882686f9bfdab3719202d6d8ccdeeb7afaba101"; got != want {
		t.Errorf("validSpec key = %s, want %s", got, want)
	}
	serial := Spec{Experiment: "flood", Graph: fixtureGraph(), Trials: 3, Seed: 5}
	const want = "d30778a4767a5465791777aad01528340a5c9fe9e9bc0c4a07ecb73e2851214a"
	if got := key(serial); got != want {
		t.Errorf("serial fixture key = %s, want %s", got, want)
	}
	sharded := serial
	sharded.Shards = 2
	if got := key(sharded); got != want {
		t.Errorf("shards: 2 key = %s, want the serial twin's %s", got, want)
	}
}

// TestShardsRangeChecked: shards is still validated before it is
// normalized away, so a spec an older server rejected stays rejected.
func TestShardsRangeChecked(t *testing.T) {
	for _, n := range []int{-1, 1025} {
		s := validSpec()
		s.Shards = n
		if err := s.Normalize(); err == nil {
			t.Errorf("shards %d accepted", n)
		}
	}
	s := validSpec()
	s.Shards = 1024
	if err := s.Normalize(); err != nil || s.Shards != 0 {
		t.Errorf("shards 1024: err=%v shards=%d, want nil/0", err, s.Shards)
	}
}

// TestPreUnshardedJournal opens a journal written by a server that ran
// shards: 2 jobs on the sharded engine: job-000001 (ghs, finished) and
// job-000002 (flood, started but never finished). The finished job
// serves its persisted bytes unchanged; the incomplete one re-runs to
// its serial twin's bytes.
func TestPreUnshardedJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "pre_unsharded.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var persisted []byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.Op == opFinished {
			persisted = []byte(r.Result)
		}
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	if got := sum(persisted); got != "5ef9acb3a3c59ed7ba24514c1c54b4f9a2cd23b8c03be4b5674d212114059e71" {
		t.Fatalf("fixture's finished result has sha256 %s; the fixture was altered", got)
	}

	s, err := openOnBytes(t, data)
	if err != nil {
		t.Fatalf("Open on the pre-unsharded journal: %v", err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	ts := newFrontend(t, s)
	if got := fetchResult(t, ts, "job-000001"); !bytes.Equal(got, persisted) {
		t.Errorf("finished shards: 2 job serves %d bytes, not its %d persisted ones", len(got), len(persisted))
	}

	waitDone(t, s, "job-000002")
	rerun := fetchResult(t, ts, "job-000002")
	if st := s.job("job-000002").status(); st.State != "done" || !st.Recovered {
		t.Fatalf("incomplete job: state=%s recovered=%v error=%q", st.State, st.Recovered, st.Error)
	}
	// The serial twin's bytes, as the older server produced them.
	if got := sum(rerun); got != "b100262a8f3be1588dd527ff021b9bca3791e6978a5b0c942eaa83b7dd5177d4" {
		t.Errorf("re-run result has sha256 %s, not the serial twin's", got)
	}
	ref, refTS := testServer(t, Config{})
	_, out, _ := postSpec(t, refTS, Spec{Experiment: "flood", Graph: fixtureGraph(), Trials: 3, Seed: 5})
	id := out["id"].(string)
	waitDone(t, ref, id)
	if want := fetchResult(t, refTS, id); !bytes.Equal(rerun, want) {
		t.Error("re-run result differs from a fresh serial run of the same spec")
	}
}
