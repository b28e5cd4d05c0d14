package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"costsense/internal/graph"
	"costsense/internal/serve"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	root     string // module root, for the source digest
	workDir  string // journals and span files
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	// Reported marks the metrics that go into the result line, those
	// BENCHMARK.json bounds; the others are printed only.
	Reported bool
}

type report struct {
	host      hostInfo
	endToEnd  []metric
	perLayer  []metric
	attempted int
	failed    int
	problems  []string

	notReady     int // 409 "result not ready" replies retried after a done line
	doneShort    int // terminal statuses reporting fewer trials done than run
	jobs         int
	digestAll    string
	prefixJobs   int
	digestPrefix string
	spansPath    string
}

// env is one open server: the service with its journal, behind an
// httptest listener.
type env struct {
	dir     string
	journal string
	srv     *serve.Server
	hs      *httptest.Server
}

// openEnv opens a server on a fresh journal and builds the workload's
// shared substrates with one untimed submission each.
func openEnv(ctx context.Context, workDir string, w *workload) (*env, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, journal: filepath.Join(dir, "journal.ndjson")}
	e.srv, err = serve.Open(serve.Config{JournalPath: e.journal})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.srv.Start()
	e.hs = httptest.NewServer(e.srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	for k, spec := range w.shared {
		if err := spec.Normalize(); err != nil {
			e.close()
			return nil, err
		}
		g := &loadGen{base: e.hs.URL, jobs: &jobList{specs: []serve.Spec{spec}, firstOf: []int{0}}}
		rec := g.runJob(ctx, hc, 0)
		if rec.err == nil {
			var b []byte
			if b, rec.err = handlerSource(e.srv.Handler())(rec.id); rec.err == nil {
				_, rec.err = checkResult(spec, b)
			}
		}
		if rec.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up submission %d: %w", k, rec.err)
		}
	}
	return e, nil
}

// release drains the server and stops the listener, dropping both so
// their memory can be reclaimed; the journal stays on disk.
func (e *env) release() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		e.srv.Drain(ctx) // every job is terminal by now; a cut drain only matters to a server being reused
		cancel()
		e.hs.Close()
		e.srv, e.hs = nil, nil
	}
}

// close releases the server and removes its journal.
func (e *env) close() {
	e.release()
	os.RemoveAll(e.dir)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// run performs one benchmark run: set-up, the timed phase (two halves,
// the second traced, when cfg.trace), drain, restart, and the checks.
func run(ctx context.Context, cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	rep := &report{host: newHostInfo(cfg.root)}
	rep.host.Workload, rep.host.Seed, rep.host.Seconds, rep.host.Trace = w.name, cfg.seed, cfg.seconds, cfg.trace
	jobs := newJobList(w, cfg.seed)

	setups := w.setups
	if cfg.trace {
		setups = 1
	}
	var e *env
	var setupDurs []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
		}
		// Write back what the build and the last set-up left dirty, so
		// the journal's first fsync commits only this set-up's files.
		syscall.Sync()
		t := time.Now()
		if e, err = openEnv(ctx, cfg.workDir, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupDurs = append(setupDurs, time.Since(t).Seconds())
	}
	defer e.close()
	resetPeakRSS()

	gen := &loadGen{base: e.hs.URL, jobs: jobs, seed: cfg.seed, block: w.block, minJobs: w.fixedJobs}
	journal0 := fileSize(e.journal)
	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	recs, start, wall := gen.run(ctx, w.clients, time.Now().Add(seconds(phase)))
	var tr *tracer
	var traced []*jobRecord
	var tracedWall time.Duration
	if cfg.trace {
		tr = newTracer()
		gen.tr = tr
		traced, _, tracedWall = gen.run(ctx, w.clients, time.Now().Add(seconds(phase)))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	all := append(append([]*jobRecord(nil), recs...), traced...)
	journalGrowth := fileSize(e.journal) - journal0

	drainCtx, cancel := context.WithTimeout(ctx, time.Minute)
	err = e.srv.Drain(drainCtx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	v := newVerifier(jobs, all)
	results, digests := v.checkAll(handlerSource(e.srv.Handler()), w.fixedJobs)
	v.checkSubstrates(results)
	replayed := v.replay(tr, e.srv.Cache(), w.replays, cfg.seed, cfg.trace)
	e.release()
	var restarts []float64
	var events map[int]int64
	if !cfg.trace {
		// A restarted server opens in a fresh process, on an empty heap.
		// Keep only the event counts of the decoded results, so the heap
		// each serve.Open starts from is near empty however many jobs
		// the run served (see restart).
		events = sumEvents(results)
		results = nil
		restarts = v.restart(e.journal, all[:min(w.fixedJobs, len(all))], 5)
	}

	rep.attempted, rep.failed, rep.problems = len(all), len(v.bad), v.problems()
	rep.jobs = len(all)
	for _, r := range all {
		rep.notReady += r.notReady
	}
	rep.doneShort = v.doneShort
	rep.prefixJobs = min(w.fixedJobs, len(all))
	rep.digestAll, rep.digestPrefix = digests[0], digests[1]

	if cfg.trace {
		rep.perLayer = layerMetrics(tr, recs, wall, traced, tracedWall, results, jobs, journalGrowth, replayed)
		rep.spansPath = filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(rep.spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		rep.endToEnd = endToEnd(recs, start, w.block, events, rep.failed, rep.attempted, setupDurs, gen.rssMB, restarts)
	}
	return rep, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// isTwin reports whether job r is a sharded run submitted right after
// the same spec, prev, on the serial engine.
func isTwin(r, prev *jobRecord) bool {
	return prev != nil && prev.index == r.index-1 && r.spec.Shards > 1 && prev.spec.Shards == 0 &&
		prev.spec.Seed == r.spec.Seed && prev.spec.Experiment == r.spec.Experiment
}

// source reads a finished job's result bytes back from a server.
type source func(id string) ([]byte, error)

// handlerSource reads results through the server's HTTP handler,
// without a network round trip.
func handlerSource(h http.Handler) source {
	return func(id string) ([]byte, error) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/result", nil))
		if rw.Code != http.StatusOK {
			return nil, fmt.Errorf("reading result %s back: status %d", id, rw.Code)
		}
		return rw.Body.Bytes(), nil
	}
}

// verifier runs every correctness check and attributes each failure
// to the job it concerns.
type verifier struct {
	jobs *jobList
	recs []*jobRecord
	bad  map[int]string // job index -> first failure
	// doneShort counts terminal statuses that report fewer finished
	// trials than the result holds (see checkAll).
	doneShort int
}

func newVerifier(jobs *jobList, recs []*jobRecord) *verifier {
	v := &verifier{jobs: jobs, recs: recs, bad: map[int]string{}}
	for _, r := range recs {
		if r.err != nil {
			v.fail(r.index, r.err.Error())
		}
	}
	return v
}

func (v *verifier) fail(job int, msg string) {
	if _, seen := v.bad[job]; !seen {
		v.bad[job] = msg
	}
}

func (v *verifier) problems() []string {
	idx := make([]int, 0, len(v.bad))
	for i := range v.bad {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = fmt.Sprintf("job %d: %s", i, v.bad[i])
	}
	return out
}

// checkAll reads every result back from src, holds it to the bytes
// the client was served and to checkResult, then holds each repeated
// spec to its first submission's bytes and each sharded twin to its
// serial run. It returns the decoded results by job index, with their
// metrics exports dropped, and two SHA-256 digests over the result
// bytes in job order: of every job, and of the first prefix jobs.
func (v *verifier) checkAll(src source, prefix int) (map[int]*serve.Result, [2]string) {
	byIndex := map[int]*jobRecord{}
	for _, r := range v.recs {
		byIndex[r.index] = r
	}
	twinOf := func(r *jobRecord) bool { return isTwin(r, byIndex[r.index-1]) }
	results := map[int]*serve.Result{}
	twin := map[int][sha256.Size]byte{} // job -> sum of its result with shards and key zeroed
	all, head := sha256.New(), sha256.New()
	for k, r := range v.recs {
		if r.err != nil {
			continue
		}
		b, err := src(r.id)
		if err != nil {
			v.fail(r.index, err.Error())
			continue
		}
		all.Write(b)
		if k < prefix {
			head.Write(b)
		}
		if fingerprint(b) != r.sum || len(b) != r.size {
			v.fail(r.index, fmt.Sprintf("served %d bytes that differ from the %d the server holds", r.size, len(b)))
			continue
		}
		if r.status.TrialsTotal != r.spec.Trials || r.status.TrialsDone < 1 || r.status.TrialsDone > int64(r.spec.Trials) {
			v.fail(r.index, fmt.Sprintf("terminal status reports %d/%d trials, spec has %d", r.status.TrialsDone, r.status.TrialsTotal, r.spec.Trials))
			continue
		}
		if r.status.TrialsDone < int64(r.spec.Trials) {
			// A known server race, counted, not failed: the harness hands
			// each worker its finished count from an atomic add, and the
			// job stores it without ordering, so two trials finishing
			// together can leave the smaller count last. The result's
			// rows are checked in full below.
			v.doneShort++
		}
		res, err := checkResult(r.spec, b)
		if err != nil {
			v.fail(r.index, err.Error())
			continue
		}
		if next, ok := byIndex[r.index+1]; twinOf(r) || (ok && twinOf(next)) {
			if s, err := shardFreeSum(res); err == nil {
				twin[r.index] = s
			}
		}
		res.Metrics = nil
		results[r.index] = res
	}
	for _, r := range v.recs {
		if r.err != nil {
			continue
		}
		if first := v.jobs.first(r.index); first != r.index {
			if f, ok := byIndex[first]; ok && f.err == nil && (f.sum != r.sum || f.size != r.size) {
				v.fail(r.index, fmt.Sprintf("repeat of job %d returned different bytes", first))
			}
		}
		if twinOf(r) {
			a, ok1 := twin[r.index-1]
			b, ok2 := twin[r.index]
			if ok1 && ok2 && a != b {
				v.fail(r.index, fmt.Sprintf("shards: %d run differs from its serial twin, job %d", r.spec.Shards, r.index-1))
			}
		}
	}
	return results, [2]string{hex.EncodeToString(all.Sum(nil)), hex.EncodeToString(head.Sum(nil))}
}

// checkSubstrates rebuilds each distinct substrate from its spec and
// holds the served 𝓥 and 𝓔 to graph.MSTWeight and the rebuilt graph.
func (v *verifier) checkSubstrates(results map[int]*serve.Result) {
	seen := map[string]bool{}
	idx := make([]int, 0, len(results))
	for i := range results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		res := results[i]
		if seen[res.Substrate.Key] {
			continue
		}
		seen[res.Substrate.Key] = true
		g := res.Spec.Graph.Build()
		if w := graph.MSTWeight(g); w != res.Substrate.MSTWeight || g.TotalWeight() != res.Substrate.TotalWeight ||
			g.N() != res.Substrate.N || g.M() != res.Substrate.M {
			v.fail(i, fmt.Sprintf("substrate n=%d m=%d 𝓔=%d 𝓥=%d, rebuilt graph has n=%d m=%d 𝓔=%d and graph.MSTWeight %d",
				res.Substrate.N, res.Substrate.M, res.Substrate.TotalWeight, res.Substrate.MSTWeight, g.N(), g.M(), g.TotalWeight(), w))
		}
	}
}

// restart copies the prefix of the drained server's journal that ends
// with the last finished record of jobs, reopens it n times, timing
// serve.Open, and checks that the first reopened server serves each of
// those jobs' results byte for byte. It returns the open times in
// seconds. Replaying a fixed set of jobs, not the whole run, keeps the
// work the same on a faster commit that ran more jobs.
func (v *verifier) restart(journal string, jobs []*jobRecord, n int) []float64 {
	failAll := func(err error) []float64 {
		for _, r := range jobs {
			v.fail(r.index, fmt.Sprintf("restart: %v", err))
		}
		return nil
	}
	prefix, err := journalPrefix(journal, jobs)
	if err != nil {
		return failAll(err)
	}
	defer os.Remove(prefix)
	var times []float64
	for k := 0; k < n; k++ {
		// Return every free page to the OS, as a fresh process has none:
		// each Open then faults in and collects the same heap, whatever
		// the run before it left behind.
		debug.FreeOSMemory()
		t := time.Now()
		srv, err := serve.Open(serve.Config{JournalPath: prefix})
		d := time.Since(t).Seconds()
		if err != nil {
			return failAll(err)
		}
		times = append(times, d)
		if k == 0 {
			src := handlerSource(srv.Handler())
			for _, r := range jobs {
				if r.err != nil {
					continue
				}
				if b, err := src(r.id); err != nil || fingerprint(b) != r.sum || len(b) != r.size {
					v.fail(r.index, fmt.Sprintf("after restart the result does not read back as served (%v)", err))
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		srv.Drain(ctx) // never started: Drain only releases it
		cancel()
		srv = nil
	}
	return times
}

// journalPrefix writes the journal's lines up to and including the
// last "finished" record of jobs to a new file beside it. A prefix of
// the journal is itself a valid journal: its sequence numbers are
// dense, and jobs it leaves unfinished are re-admitted only on Start.
func journalPrefix(journal string, jobs []*jobRecord) (string, error) {
	data, err := os.ReadFile(journal)
	if err != nil {
		return "", err
	}
	want := map[string]bool{}
	for _, r := range jobs {
		if r.err == nil {
			want[r.id] = true
		}
	}
	end, off := 0, 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		var rec struct {
			Op  string `json:"op"`
			Job string `json:"job"`
		}
		if err := json.Unmarshal(data[off:off+nl], &rec); err != nil {
			return "", fmt.Errorf("journal line at byte %d: %w", off, err)
		}
		off += nl + 1
		if rec.Op == "finished" && want[rec.Job] {
			delete(want, rec.Job)
			end = off
		}
	}
	if len(want) > 0 {
		return "", fmt.Errorf("journal has no finished record for %d served jobs", len(want))
	}
	path := journal + ".prefix"
	return path, os.WriteFile(path, data[:end], 0o644)
}

// replay re-executes a seeded sample of n distinct completed jobs and
// holds each to its served bytes. It returns how many it replayed.
func (v *verifier) replay(tr *tracer, cache *serve.Cache, n int, seed int64, engine bool) int {
	var cands []*jobRecord
	for _, r := range v.recs {
		if r.err == nil && v.jobs.first(r.index) == r.index {
			cands = append(cands, r)
		}
	}
	rng := rand.New(rand.NewSource(seed + 99))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	for _, r := range cands {
		b, err := replayJob(tr, r.index, r.spec, cache, engine)
		switch {
		case err != nil:
			v.fail(r.index, fmt.Sprintf("replay: %v", err))
			return len(cands)
		case fingerprint(b) != r.sum || len(b) != r.size:
			v.fail(r.index, fmt.Sprintf("replay produced %d bytes that differ from the %d served", len(b), r.size))
		}
	}
	return len(cands)
}
