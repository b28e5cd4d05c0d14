package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"costsense/internal/serve"
)

// jobRecord is what one closed-loop client saw of one job.
type jobRecord struct {
	index int
	spec  serve.Spec
	id    string

	submitAt   time.Time // submit request sent
	terminalAt time.Time // terminal NDJSON line received
	fetchedAt  time.Time // last result byte read
	status     serve.JobStatus
	// The result's bytes are not kept, only their CRC-32C and length,
	// computed while they stream in: the server retains the bytes and
	// the checks read them back after the timed phase. Holding a second
	// copy would double the memory the benchmark measures.
	sum  uint32
	size int

	rereadOf  int // index of the job re-read after this one, or -1
	rereadDur time.Duration

	// notReady counts the 409 "result not ready" replies the result GET
	// got after the terminal done line, each retried (see fetch).
	notReady int

	err error // the first failure: admission, stream, fetch or re-read
}

func (r *jobRecord) latency() time.Duration { return r.fetchedAt.Sub(r.submitAt) }

// loadGen drives one server with closed-loop clients. Clients take job
// indices in order from the shared job list; a client submits its next
// job only after the previous one's result (and re-read) is in.
type loadGen struct {
	base  string
	jobs  *jobList
	seed  int64
	block int
	// minJobs is the least number of jobs a run starts, deadline or
	// not, so the workload's fixed job prefix is always complete.
	minJobs int
	tr      *tracer // nil when tracing is off

	// rssMB is the process's peak RSS when the first minJobs jobs of
	// the first run had all been served.
	rssMB float64

	mu       sync.Mutex
	next     int
	records  []*jobRecord // by job index
	finished []int        // indices of jobs whose result was read, in completion order
}

// take hands out the next job index, or -1 once the deadline has passed,
// the last started block is complete and at least minJobs were started.
func (g *loadGen) take(deadline time.Time) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.next >= g.minJobs && g.next%g.block == 0 && !time.Now().Before(deadline) {
		return -1
	}
	i := g.next
	g.next++
	for len(g.records) <= i {
		g.records = append(g.records, nil)
	}
	return i
}

// run starts clients that keep submitting until the deadline, then
// waits for every job they started. It returns the records of the jobs
// it ran, in index order, the time it started and the wall time from
// then to the last result.
func (g *loadGen) run(ctx context.Context, clients int, deadline time.Time) ([]*jobRecord, time.Time, time.Duration) {
	g.mu.Lock()
	from := g.next
	g.mu.Unlock()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One connection per client, reused job after job.
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for ctx.Err() == nil {
				i := g.take(deadline)
				if i < 0 {
					return
				}
				rec := g.runJob(ctx, hc, i)
				g.mu.Lock()
				g.records[i] = rec
				if rec.err == nil {
					g.finished = append(g.finished, i)
				}
				if g.rssMB == 0 && from == 0 && len(g.records) >= g.minJobs && !slices.Contains(g.records[:g.minJobs], nil) {
					g.rssMB = peakRSSMB()
				}
				g.mu.Unlock()
				if rec.err == nil {
					g.reread(ctx, hc, rec)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*jobRecord, 0, g.next-from)
	for _, r := range g.records[from:g.next] {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, start, wall
}

// runJob submits job i, follows its stream to the terminal line and
// reads its result to EOF.
func (g *loadGen) runJob(ctx context.Context, hc *http.Client, i int) *jobRecord {
	rec := &jobRecord{index: i, spec: g.jobs.spec(i), rereadOf: -1}
	root := g.tr.begin("job", i, 0)
	defer g.tr.end(root)

	body, err := json.Marshal(rec.spec)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.submitAt = time.Now()
	sp := g.tr.begin("http.submit", i, root)
	var admitted struct {
		ID string `json:"id"`
	}
	rec.err = doJSON(ctx, hc, http.MethodPost, g.base+"/api/v1/jobs", body, http.StatusAccepted, &admitted)
	g.tr.end(sp)
	if rec.err != nil {
		return rec
	}
	rec.id = admitted.ID

	sp = g.tr.begin("http.stream", i, root)
	rec.status, rec.err = follow(ctx, hc, g.base+"/api/v1/jobs/"+rec.id+"/stream")
	rec.terminalAt = time.Now()
	g.tr.end(sp)
	if rec.err != nil {
		return rec
	}
	if rec.status.State != "done" {
		rec.err = fmt.Errorf("job %s (%d) ended %s (reason %s): %s", rec.id, i, rec.status.State, rec.status.Reason, rec.status.Error)
		return rec
	}

	sp = g.tr.begin("http.fetch", i, root)
	rec.err = fetch(ctx, hc, g.base+"/api/v1/jobs/"+rec.id+"/result", rec)
	rec.fetchedAt = time.Now()
	g.tr.end(sp)
	return rec
}

// notReadyGrace is how long after the terminal done line a 409 "result
// not ready" reply is retried. The server appends the terminal line
// before it marks the job finished (Job.complete), so a GET sent as
// soon as the line is read can land in between and get a 409 for a job
// whose result is already set. The window is a few instructions wide;
// a 409 that outlasts the grace is a failed read.
const notReadyGrace = 2 * time.Second

// fetch reads a done job's result to EOF into rec's sum and size,
// retrying 409 replies within notReadyGrace of the terminal line and
// counting them in rec.notReady. Any other error fails the read.
func fetch(ctx context.Context, hc *http.Client, url string, rec *jobRecord) error {
	wait := 50 * time.Microsecond
	for {
		var err error
		rec.sum, rec.size, err = getSum(ctx, hc, url)
		var se *statusError
		if !errors.As(err, &se) || se.code != http.StatusConflict || time.Since(rec.terminalAt) > notReadyGrace {
			return err
		}
		rec.notReady++
		select {
		case <-ctx.Done():
			return err
		case <-time.After(wait):
		}
		wait = min(2*wait, 10*time.Millisecond)
	}
}

// reread fetches the result of one earlier finished job of the same
// kind, picked by the seed, and holds it to the bytes first read.
// Re-reading a job of the same experiment, delay, fault setting and
// shard count keeps the mix of result sizes re-read the same as the
// mix of jobs, whatever the seed picks.
func (g *loadGen) reread(ctx context.Context, hc *http.Client, rec *jobRecord) {
	rng := rand.New(rand.NewSource(g.seed*6_364_136 + int64(rec.index)))
	g.mu.Lock()
	var cands []*jobRecord
	for _, i := range g.finished {
		if r := g.records[i]; i != rec.index && sameKind(r.spec, rec.spec) {
			cands = append(cands, r)
		}
	}
	var other *jobRecord
	if len(cands) > 0 {
		other = cands[rng.Intn(len(cands))]
	}
	g.mu.Unlock()
	if other == nil {
		return
	}
	sp := g.tr.begin("http.reread", rec.index, 0)
	t := time.Now()
	sum, n, err := getSum(ctx, hc, g.base+"/api/v1/jobs/"+other.id+"/result")
	rec.rereadDur = time.Since(t)
	g.tr.end(sp)
	rec.rereadOf = other.index
	switch {
	case err != nil:
		rec.err = fmt.Errorf("re-reading job %d: %w", other.index, err)
	case sum != other.sum || n != other.size:
		rec.err = fmt.Errorf("re-read of job %d returned %d bytes that differ from the %d first read", other.index, n, other.size)
	}
}

func sameKind(a, b serve.Spec) bool {
	return a.Experiment == b.Experiment && a.Delay == b.Delay && (a.Faults == nil) == (b.Faults == nil) && a.Shards == b.Shards
}

// doJSON sends one request and decodes a JSON reply with the wanted
// status code.
func doJSON(ctx context.Context, hc *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// getSum reads a 200 reply to EOF and returns its CRC-32C and length.
// Unlike serve.Client.Result it sets no size cap, so a large result is
// counted whole.
func getSum(ctx context.Context, hc *http.Client, url string) (uint32, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, &statusError{url: url, code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, resp.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("GET %s: %w", url, err)
	}
	return h.Sum32(), int(n), nil
}

// statusError is a reply with a status other than 200.
type statusError struct {
	url  string
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("GET %s: status %d: %s", e.url, e.code, e.body)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fingerprint is the CRC-32C getSum computes, for bytes in hand.
func fingerprint(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// follow reads a job's NDJSON progress stream up to its terminal line.
func follow(ctx context.Context, hc *http.Client, url string) (serve.JobStatus, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		st = serve.JobStatus{}
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return st, fmt.Errorf("GET %s: bad stream line: %w", url, err)
		}
		if st.State == "done" || st.State == "failed" {
			// Stop at the terminal line, as serve.Client does. The stream
			// is not read to EOF: when the terminal append races the
			// job's completion, the server leaves the response open
			// after the terminal line, and a read to EOF never returns.
			// Closing the body closes the connection instead.
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("GET %s: stream ended without a terminal line", url)
}
