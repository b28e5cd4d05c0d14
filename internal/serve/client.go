package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client talks to a costsense experiment server with retry, backoff
// and stream resumption, so a caller survives the exact failures the
// service itself is built to survive: backpressure (429 + Retry-After),
// drains (503), and crash-restarts (connection errors mid-stream,
// resumed via the stream's ?from= offset). The zero value plus Base is
// usable.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds retries per call (default 10).
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up
	// to 5s (default 100ms). A 429's Retry-After overrides it.
	BaseBackoff time.Duration
}

// maxResultBytes bounds the result body Client.Result reads.
const maxResultBytes = 64 << 20

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 10
}

// backoffFor resolves the delay before retry attempt (0-based),
// preferring the server's Retry-After hint when one was given.
func (c *Client) backoffFor(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := c.BaseBackoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	d <<= attempt
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// sleep waits d or until ctx is cancelled.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	//costsense:nondet-ok client retry backoff is wall-clock by nature and never feeds result bytes
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterOf parses a response's Retry-After seconds hint (0 if
// absent or unparseable).
func retryAfterOf(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
		return time.Duration(n) * time.Second
	}
	return 0
}

// retryable reports whether a response status is worth retrying:
// backpressure and drain answers are explicitly transient; everything
// else 4xx/5xx is a real answer.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// do runs one request with retry: connection errors (the server is
// down — perhaps restarting after a crash) and transient statuses are
// retried with backoff; any other response is returned to the caller.
// On success the caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoffFor(attempt-1, retryAfterFromErr(lastErr))); err != nil {
				return nil, err
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err // connection refused/reset: server may be restarting
			continue
		}
		if retryable(resp.StatusCode) {
			ra := retryAfterOf(resp)
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			//costsense:err-ok draining a transient response; the retry path owns the connection's fate
			resp.Body.Close()
			lastErr = &transientStatusError{status: resp.StatusCode, retryAfter: ra, detail: string(bytes.TrimSpace(msg))}
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("serve client: %s %s: attempts exhausted: %w", method, path, lastErr)
}

// transientStatusError carries a retryable response through the retry
// loop so the next backoff can honor its Retry-After.
type transientStatusError struct {
	status     int
	retryAfter time.Duration
	detail     string
}

func (e *transientStatusError) Error() string {
	return fmt.Sprintf("transient status %d (%s)", e.status, e.detail)
}

func retryAfterFromErr(err error) time.Duration {
	var te *transientStatusError
	if errors.As(err, &te) {
		return te.retryAfter
	}
	return 0
}

// decodeInto reads and decodes a JSON response body, closing it.
func decodeInto(resp *http.Response, v any) error {
	defer resp.Body.Close() //costsense:err-ok response fully read below; a close error has nothing left to corrupt
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("serve client: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// Submit posts a spec and returns the admitted job's ID, retrying
// through backpressure (429, honoring Retry-After), drains and
// connection errors. A retry after an ambiguous connection error can
// double-submit; that is safe here because results are pure functions
// of the spec — the duplicate job returns byte-identical output.
func (c *Client) Submit(ctx context.Context, spec Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body)
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := decodeInto(resp, &out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("serve client: submit response carried no job id")
	}
	return out.ID, nil
}

// Status fetches one job's current status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	err = decodeInto(resp, &st)
	return st, err
}

// Result fetches a finished job's result bytes. A body larger than
// 64 MiB is an error, never a truncated result.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	return readResult(resp, id, maxResultBytes)
}

// readResult reads and closes a result response of at most limit
// bytes.
func readResult(resp *http.Response, id string, limit int64) ([]byte, error) {
	defer resp.Body.Close() //costsense:err-ok response fully read below; a close error has nothing left to corrupt
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve client: result status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("serve client: result of job %s exceeds %d bytes", id, limit)
	}
	return b, nil
}

// terminalState reports whether a streamed status line ends the job.
func terminalState(s string) bool { return s == "done" || s == "failed" }

// Follow streams a job's NDJSON progress to w until the job is
// terminal, returning the final status. It tracks the stream offset
// and resumes with ?from= after any disconnection — including a server
// crash and restart, where the journal re-runs the job and the
// re-grown progress log picks the stream back up. Lines the client
// already saw are never re-emitted.
func (c *Client) Follow(ctx context.Context, id string, w io.Writer) (JobStatus, error) {
	from := 0
	var lastErr error
	for attempt := 0; attempt < c.attempts(); {
		if lastErr != nil {
			if err := c.sleep(ctx, c.backoffFor(attempt, retryAfterFromErr(lastErr))); err != nil {
				return JobStatus{}, err
			}
		}
		st, n, err := c.followOnce(ctx, id, from, w)
		from += n
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return JobStatus{}, ctx.Err()
		}
		if n > 0 {
			attempt = 0 // progress resets the retry budget
		} else {
			attempt++
		}
		lastErr = err
	}
	return JobStatus{}, fmt.Errorf("serve client: follow %s: attempts exhausted: %w", id, lastErr)
}

// followOnce runs one stream connection from offset from, forwarding
// each line to w, and returns the lines consumed. A nil error means
// the terminal line was seen and returned as st.
func (c *Client) followOnce(ctx context.Context, id string, from int, w io.Writer) (st JobStatus, lines int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/jobs/%s/stream?from=%d", c.Base, id, from), nil)
	if err != nil {
		return st, 0, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close() //costsense:err-ok stream is line-framed; a close error after the terminal line has nothing left to corrupt
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return st, 0, &transientStatusError{status: resp.StatusCode, retryAfter: retryAfterOf(resp), detail: string(bytes.TrimSpace(b))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if w != nil {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return st, lines, err
			}
		}
		lines++
		if err := json.Unmarshal(line, &st); err != nil {
			return st, lines, fmt.Errorf("serve client: bad stream line: %w", err)
		}
		if terminalState(st.State) {
			return st, lines, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, lines, err
	}
	return st, lines, io.ErrUnexpectedEOF // stream ended without a terminal line (server went away)
}

// Run submits a spec, follows its stream (progress to w, which may be
// nil) until terminal, and returns the final status plus the result
// bytes for a done job — riding out backpressure, drains and
// crash-restarts along the way. A failed job returns its status with
// a nil result and no error; the caller reads st.Reason.
func (c *Client) Run(ctx context.Context, spec Spec, w io.Writer) (JobStatus, []byte, error) {
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return JobStatus{}, nil, err
	}
	st, err := c.Follow(ctx, id, w)
	if err != nil {
		return st, nil, err
	}
	if st.State != "done" {
		return st, nil, nil
	}
	res, err := c.Result(ctx, id)
	if err != nil {
		return st, nil, err
	}
	return st, res, nil
}
