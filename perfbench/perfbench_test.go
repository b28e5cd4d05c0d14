package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, seconds: 0.2, trace: trace,
		sizes: tinySizes, root: "..", workDir: t.TempDir(),
	}
}

// TestTinyWorkloads runs every workload at tiny scale, untraced and
// traced, and checks that each emits every metric BENCHMARK.json
// declares, with its unit, plus error_rate, and that every check
// passes.
func TestTinyWorkloads(t *testing.T) {
	bs := loadBenchmarkSpec(t)
	if len(bs.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want sweep, churn and bigrun", len(bs.Workloads))
	}
	for _, wl := range bs.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(context.Background(), tinyConfig(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if rep.attempted == 0 {
				t.Fatalf("%s trace=%v: no jobs attempted", wl.Name, trace)
			}
			if rep.failed > 0 {
				t.Fatalf("%s trace=%v: %d of %d jobs failed: %v", wl.Name, trace, rep.failed, rep.attempted, rep.problems)
			}
			if rep.notReady > 0 {
				// The known server race that fetch retries: Job.complete
				// publishes the terminal done line before marking the job
				// finished. Tiny jobs hit the window more often.
				t.Logf("%s trace=%v: %d result GETs got 409 after the done line and were retried", wl.Name, trace, rep.notReady)
			}
			got := map[string]metric{}
			for _, m := range append(rep.endToEnd, rep.perLayer...) {
				got[m.Name] = m
			}
			want := bs.EndToEnd
			if trace {
				want = bs.PerLayer
			}
			reported := 0
			for _, m := range got {
				if m.Reported {
					reported++
				}
			}
			if reported != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result line, BENCHMARK.json declares %d", wl.Name, trace, reported, len(want))
			}
			for _, w := range want {
				m, ok := got[w.Name]
				if !ok || !m.Reported || m.Unit != w.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", wl.Name, trace, w.Name, m, w.Unit)
				}
			}
			if !trace {
				if m, ok := got["error_rate"]; !ok || m.Value != float64(rep.failed)/float64(rep.attempted) || m.Unit != "ratio" {
					t.Errorf("%s: error_rate %+v", wl.Name, m)
				}
			}
		}
	}
}

// servedJob runs one tiny churn job through a live server and returns
// the server (drained, cache intact), the job's record and its result
// bytes.
func servedJob(t *testing.T) (*env, *jobList, *jobRecord, []byte) {
	t.Helper()
	w, err := newWorkload("churn", 5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	e, err := openEnv(context.Background(), t.TempDir(), w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	jobs := newJobList(w, 5)
	gen := &loadGen{base: e.hs.URL, jobs: jobs, block: 1}
	rec := gen.runJob(context.Background(), &http.Client{}, 0)
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	body, err := handlerSource(e.srv.Handler())(rec.id)
	if err != nil {
		t.Fatal(err)
	}
	return e, jobs, rec, body
}

// verify runs the result checks and the replay on one record as if the
// client had been served body, and returns the failures found.
func verify(e *env, jobs *jobList, rec *jobRecord, body []byte) []string {
	r := *rec
	r.sum, r.size = fingerprint(body), len(body)
	v := newVerifier(jobs, []*jobRecord{&r})
	results, _ := v.checkAll(func(string) ([]byte, error) { return body, nil }, 1)
	v.checkSubstrates(results)
	v.replay(nil, e.srv.Cache(), 1, 1, false)
	return v.problems()
}

// TestCheckerRejectsDamagedResults feeds the checker a served result
// cut short and with single bytes altered at positions across the
// body; every variant must fail, and the intact result must pass.
func TestCheckerRejectsDamagedResults(t *testing.T) {
	e, jobs, rec, body := servedJob(t)
	if p := verify(e, jobs, rec, body); len(p) != 0 {
		t.Fatalf("intact result rejected: %v", p)
	}
	cut := body[:len(body)*2/3]
	if p := verify(e, jobs, rec, cut); len(p) == 0 {
		t.Errorf("a result truncated to %d of %d bytes passed", len(cut), len(body))
	}
	for k := 1; k < 40; k++ {
		pos := k * len(body) / 40
		altered := append([]byte(nil), body...)
		switch c := altered[pos]; {
		case c >= '0' && c <= '8':
			altered[pos] = c + 1
		case c == '9':
			altered[pos] = '0'
		case c == ' ':
			altered[pos] = '\t'
		default:
			altered[pos] = c ^ 0x20
		}
		if p := verify(e, jobs, rec, altered); len(p) == 0 {
			t.Errorf("a result with byte %d altered (%q -> %q) passed", pos, body[pos], altered[pos])
		}
	}
}

// TestFetchRetriesNotReady checks that a 409 reply to the result GET
// right after the done line is retried and counted, and that a 409
// past the grace, or any other error status, fails the read.
func TestFetchRetriesNotReady(t *testing.T) {
	body := []byte("{}\n")
	var conflicts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/gone":
			http.Error(w, "job failed", http.StatusInternalServerError)
		case r.URL.Path == "/late" || conflicts < 2:
			conflicts++
			http.Error(w, "job is done; result not ready", http.StatusConflict)
		default:
			w.Write(body)
		}
	}))
	defer ts.Close()
	ctx := context.Background()

	rec := &jobRecord{terminalAt: time.Now()}
	if err := fetch(ctx, ts.Client(), ts.URL+"/result", rec); err != nil {
		t.Fatalf("409 twice, then 200: %v", err)
	}
	if rec.notReady != 2 || rec.sum != fingerprint(body) || rec.size != len(body) {
		t.Errorf("after two 409s: notReady %d, %d bytes, want 2 and the %d-byte body", rec.notReady, rec.size, len(body))
	}
	rec = &jobRecord{terminalAt: time.Now().Add(-notReadyGrace - time.Millisecond)}
	if err := fetch(ctx, ts.Client(), ts.URL+"/late", rec); err == nil || rec.notReady != 0 {
		t.Errorf("409 past the grace: err %v, notReady %d; want an error and no retry", err, rec.notReady)
	}
	rec = &jobRecord{terminalAt: time.Now()}
	if err := fetch(ctx, ts.Client(), ts.URL+"/gone", rec); err == nil || rec.notReady != 0 {
		t.Errorf("status 500: err %v, notReady %d; want an error and no retry", err, rec.notReady)
	}
}

// TestSelfTime checks that a span's self time excludes the time its
// children cover, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "job", Start: 0, End: 10 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * time.Millisecond, End: 4 * time.Millisecond},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * time.Millisecond, End: 6 * time.Millisecond},
	}}
	self := tr.selfTimes()
	if self[1] != 5*time.Millisecond || self[2] != 3*time.Millisecond {
		t.Errorf("self times %v, want job 5ms and a 3ms", self)
	}
}
