package serve

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newUnstartedFrontend serves a Server whose scheduler loop was never
// started, so admitted jobs stay queued for as long as the test looks
// at them.
func newUnstartedFrontend(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// scrape fetches the text exposition and returns it split into lines.
func scrape(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(b), "\n"), "\n")
}

// series extracts the value line for an exact series name (with label
// set, if any), failing the test when it is missing.
func series(t *testing.T, lines []string, name string) string {
	t.Helper()
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("series %s missing from exposition", name)
	return ""
}

// TestMetricsExposition: after one completed job the endpoint reports
// consistent lifecycle counts, populated histograms, and cache state —
// and every line is well-formed text exposition.
func TestMetricsExposition(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Trials = 3
	_, out, _ := postSpec(t, ts, spec)
	waitDone(t, s, out["id"].(string))

	lines := scrape(t, ts.URL)
	for _, l := range lines {
		if l == "" {
			t.Error("blank line in exposition")
			continue
		}
		if !strings.HasPrefix(l, "# ") && !strings.HasPrefix(l, "costsense_") {
			t.Errorf("malformed line %q", l)
		}
	}
	if got := series(t, lines, `costsense_jobs{state="done"}`); got != "1" {
		t.Errorf("done jobs = %s, want 1", got)
	}
	if got := series(t, lines, "costsense_jobs_submitted_total"); got != "1" {
		t.Errorf("submitted = %s, want 1", got)
	}
	if got := series(t, lines, "costsense_trials_completed_total"); got != "3" {
		t.Errorf("trials completed = %s, want 3", got)
	}
	if got := series(t, lines, "costsense_queue_depth"); got != "0" {
		t.Errorf("queue depth = %s, want 0", got)
	}
	// One finished job: every histogram holds exactly one observation,
	// and the cumulative +Inf bucket agrees with _count.
	for _, h := range []string{"costsense_job_queue_wait_seconds", "costsense_job_duration_seconds", "costsense_job_trials_per_second"} {
		if got := series(t, lines, h+"_count"); got != "1" {
			t.Errorf("%s_count = %s, want 1", h, got)
		}
		if got := series(t, lines, h+`_bucket{le="+Inf"}`); got != "1" {
			t.Errorf("%s +Inf bucket = %s, want 1", h, got)
		}
	}
	if got := series(t, lines, "costsense_cache_misses_total"); got != "1" {
		t.Errorf("cache misses = %s, want 1", got)
	}
	if got := series(t, lines, "costsense_cache_entries"); got != "1" {
		t.Errorf("cache entries = %s, want 1", got)
	}
}

// TestMetricsBackpressure: a rejected submission shows up in
// costsense_jobs_rejected_total and the queued job in the depth gauge —
// scraped identically from a server with no scheduler draining.
func TestMetricsBackpressure(t *testing.T) {
	s := New(Config{QueueCap: 1})
	ts := newUnstartedFrontend(t, s)
	if code, _, _ := postSpec(t, ts, validSpec()); code != http.StatusAccepted {
		t.Fatal("first submit rejected")
	}
	if code, _, _ := postSpec(t, ts, validSpec()); code != http.StatusTooManyRequests {
		t.Fatal("second submit not rejected")
	}
	lines := scrape(t, ts.URL)
	if got := series(t, lines, "costsense_jobs_rejected_total"); got != "1" {
		t.Errorf("rejected = %s, want 1", got)
	}
	if got := series(t, lines, "costsense_queue_depth"); got != "1" {
		t.Errorf("queue depth = %s, want 1", got)
	}
	if got := series(t, lines, "costsense_queue_capacity"); got != "1" {
		t.Errorf("queue capacity = %s, want 1", got)
	}
	if got := series(t, lines, `costsense_jobs{state="queued"}`); got != "1" {
		t.Errorf("queued jobs = %s, want 1", got)
	}
}

// TestMetricsScrapeDuringStream hammers /metrics from several
// goroutines while a job runs and streams NDJSON — the -race half of
// the exposition contract: scrapes snapshot the job table under mu
// while the scheduler mutates job atomics and the stream handler reads
// them.
func TestMetricsScrapeDuringStream(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Trials = 256
	_, out, _ := postSpec(t, ts, spec)
	id := out["id"].(string)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(r.Body)
				r.Body.Close()
				if err != nil || r.StatusCode != http.StatusOK {
					t.Errorf("scrape: status %d, err %v", r.StatusCode, err)
					return
				}
				if !bytes.Contains(b, []byte("costsense_jobs_submitted_total 1")) {
					t.Error("mid-run scrape lost the submitted job")
					return
				}
			}
		}()
	}

	// Drain the stream to its terminal line, then stop the scrapers.
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		lines++
	}
	close(done)
	wg.Wait()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream emitted nothing")
	}
	waitDone(t, s, id)
	final := scrape(t, ts.URL)
	if got := series(t, final, "costsense_trials_completed_total"); got != "256" {
		t.Errorf("final trials completed = %s, want 256", got)
	}
}

// TestHealthzFields: the health endpoint carries the queue and cache
// gauges, and names the running job only while one is in flight.
func TestHealthzFields(t *testing.T) {
	s := New(Config{QueueCap: 4})
	ts := newUnstartedFrontend(t, s)
	postSpec(t, ts, validSpec())
	postSpec(t, ts, validSpec())
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("healthz status: %v", h)
	}
	if h["queue_depth"].(float64) != 2 || h["queue_cap"].(float64) != 4 {
		t.Errorf("queue fields: depth %v cap %v, want 2 and 4", h["queue_depth"], h["queue_cap"])
	}
	if _, ok := h["cache_entries"]; !ok {
		t.Error("healthz missing cache_entries")
	}
	if _, ok := h["cache_bytes"]; !ok {
		t.Error("healthz missing cache_bytes")
	}
	if _, ok := h["running_job"]; ok {
		t.Error("healthz names a running job with no scheduler started")
	}
}

// TestRequestAndJobLogs: the configured slog logger receives request
// and job lifecycle records with the audited ts attribute and no
// handler-stamped time key.
func TestRequestAndJobLogs(t *testing.T) {
	var lb lockedBuffer
	s, ts := testServer(t, Config{Logger: NewLogger(&lb)})
	_, out, _ := postSpec(t, ts, validSpec())
	waitDone(t, s, out["id"].(string))
	scrape(t, ts.URL)

	logs := lb.String()
	for _, want := range []string{"job admitted", "job started", "job finished", "http request"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log output missing %q record:\n%s", want, logs)
		}
	}
	for _, l := range strings.Split(strings.TrimRight(logs, "\n"), "\n") {
		if !strings.Contains(l, "ts=") {
			t.Errorf("record without audited ts attribute: %s", l)
		}
		if strings.HasPrefix(l, "time=") {
			t.Errorf("record carries the handler's own clock: %s", l)
		}
	}
	if !strings.Contains(logs, "state=done") {
		t.Errorf("job finished record lacks terminal state:\n%s", logs)
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer: the scheduler
// goroutine and request handlers log concurrently.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
