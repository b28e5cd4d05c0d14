package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func testClient(base string) *Client {
	return &Client{Base: base, BaseBackoff: time.Millisecond, MaxAttempts: 8}
}

// TestClientRetryAfterHonored: the 429 hint beats exponential backoff.
func TestClientRetryAfterHonored(t *testing.T) {
	c := testClient("")
	if d := c.backoffFor(0, 3*time.Second); d != 3*time.Second {
		t.Fatalf("backoffFor with hint = %v, want 3s", d)
	}
	if d := c.backoffFor(2, 0); d != 4*time.Millisecond {
		t.Fatalf("backoffFor(2) = %v, want 4ms (1ms << 2)", d)
	}
	if d := c.backoffFor(30, 0); d != 5*time.Second {
		t.Fatalf("backoffFor cap = %v, want 5s", d)
	}
	resp := &http.Response{Header: http.Header{"Retry-After": []string{"2"}}}
	if d := retryAfterOf(resp); d != 2*time.Second {
		t.Fatalf("retryAfterOf = %v, want 2s", d)
	}
	if d := retryAfterOf(&http.Response{Header: http.Header{}}); d != 0 {
		t.Fatalf("retryAfterOf without header = %v, want 0", d)
	}
}

// TestClientSubmitRidesOutBackpressure: 429s and 503s are retried
// until the server admits the job; the Retry-After header is consumed
// from the transient response.
func TestClientSubmitRidesOutBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0") // parses to 0: falls back to BaseBackoff
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full; retry later"}`)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-000007"}`)
		}
	}))
	defer ts.Close()
	id, err := testClient(ts.URL).Submit(context.Background(), validSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if id != "job-000007" || calls.Load() != 3 {
		t.Fatalf("id=%s after %d calls, want job-000007 after 3", id, calls.Load())
	}
}

// TestClientSubmitSurfacesRealErrors: a 400 is an answer, not a
// transient — no retry.
func TestClientSubmitSurfacesRealErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"invalid spec"}`)
	}))
	defer ts.Close()
	if _, err := testClient(ts.URL).Submit(context.Background(), validSpec()); err == nil {
		t.Fatal("bad request did not surface")
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried %d times", calls.Load())
	}
}

// TestClientFollowResumesFromOffset: when the stream drops mid-job the
// client reconnects with ?from= past the lines it already has — no
// replay, no gap — and keeps going until the terminal line.
func TestClientFollowResumesFromOffset(t *testing.T) {
	line := func(state string, done int) string {
		b, err := json.Marshal(JobStatus{ID: "job-000001", State: state, TrialsDone: int64(done), TrialsTotal: 4})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	log := []string{line("queued", 0), line("running", 1), line("running", 2), line("running", 4), line("done", 4)}
	var gotFrom []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.Atoi(r.URL.Query().Get("from"))
		if err != nil {
			t.Errorf("stream called without a numeric from: %q", r.URL.RawQuery)
			from = 0
		}
		gotFrom = append(gotFrom, from)
		// First connection: two lines, then the server "crashes" (the
		// response just ends). Second connection: the rest.
		end := len(log)
		if len(gotFrom) == 1 {
			end = 2
		}
		for i := from; i < end; i++ {
			fmt.Fprint(w, log[i])
		}
	}))
	defer ts.Close()

	var buf bytes.Buffer
	st, err := testClient(ts.URL).Follow(context.Background(), "job-000001", &buf)
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if st.State != "done" || st.TrialsDone != 4 {
		t.Fatalf("final status %s/%d, want done/4", st.State, st.TrialsDone)
	}
	if len(gotFrom) != 2 || gotFrom[0] != 0 || gotFrom[1] != 2 {
		t.Fatalf("stream offsets %v, want [0 2]", gotFrom)
	}
	if got, want := buf.String(), joinLines(log); got != want {
		t.Fatalf("followed lines:\n%q\nwant:\n%q", got, want)
	}
}

func joinLines(lines []string) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
	}
	return b.String()
}

// TestClientRunEndToEnd drives the whole helper against a real server:
// submit → follow → result, and the result bytes match a direct GET.
func TestClientRunEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := validSpec()
	spec.Trials = 4
	var buf bytes.Buffer
	st, res, err := testClient(ts.URL).Run(context.Background(), spec, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.State != "done" {
		t.Fatalf("final state %s (%s)", st.State, st.Error)
	}
	waitDone(t, s, st.ID)
	if want := fetchResult(t, ts, st.ID); !bytes.Equal(res, want) {
		t.Fatal("client result differs from a direct GET")
	}
	if buf.Len() == 0 {
		t.Fatal("no progress lines reached the writer")
	}
}

// TestClientRunReportsTypedFailure: a failed job is an answer — Run
// returns its status (typed reason intact) with no error and no
// result.
func TestClientRunReportsTypedFailure(t *testing.T) {
	_, ts := testServer(t, Config{})
	slow := validSpec()
	slow.Graph = GraphSpec{Family: "random", N: 4000, M: 12000, Seed: 3}
	slow.Trials = MaxTrials
	slow.TimeoutMS = 30
	st, res, err := testClient(ts.URL).Run(context.Background(), slow, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.State != "failed" || st.Reason != ReasonDeadline || res != nil {
		t.Fatalf("state=%s reason=%s res=%v, want failed/deadline/nil", st.State, st.Reason, res)
	}
}

// TestClientResultLimit: a result body over the limit is an error,
// not a silently truncated result; one at the limit is whole.
func TestClientResultLimit(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 1024)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer ts.Close()
	read := func(limit int64) ([]byte, error) {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return readResult(resp, "job-000001", limit)
	}
	if got, err := read(int64(len(body))); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("body at the limit: %d bytes, err %v; want all %d", len(got), err, len(body))
	}
	if got, err := read(int64(len(body)) - 1); err == nil {
		t.Fatalf("body over the limit returned %d bytes and no error", len(got))
	}
}
