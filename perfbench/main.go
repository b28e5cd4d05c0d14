// Command perfbench is costsense's end-to-end benchmark. It opens the
// experiment service (serve.Open, journal on) in process behind an
// httptest server and drives it over HTTP with seeded closed-loop
// clients, as `costsense jobrun` does: submit, follow the NDJSON stream
// to its terminal line, read the result to EOF, re-read an earlier
// job's result. Every result is checked; a sample is replayed through
// the layers' public functions and must reproduce the served bytes.
//
// Run it from the module root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sweep|churn|bigrun --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from spans recorded around each call into
// a layer. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any check fails. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: sweep, churn or bigrun")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; fixes the job list")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|churn|bigrun --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	cfg.sizes = fullSizes
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.root = wd
	cfg.workDir = filepath.Join(wd, ".bench_build", "perfbench", "work")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run must end within three minutes; past this deadline every
	// pending HTTP call fails, and the run reports its jobs failed.
	ctx, cancel := context.WithTimeout(ctx, 165*time.Second)
	defer cancel()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the host record, every metric with its unit and sample
// count, the result digests, and the result line.
func (r *report) print(w *os.File) {
	host, _ := json.Marshal(r.host)
	fmt.Fprintf(w, "host %s\n", host)
	kind := "end_to_end"
	ms := r.endToEnd
	if r.host.Trace {
		kind, ms = "per_layer", r.perLayer
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %-28s %16.6f %-6s n=%d\n", kind, r.host.Workload, m.Name, m.Value, m.Unit, m.N)
		if m.Reported {
			line.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	// Two known server races, counted, not failed (see fetch in load.go
	// and checkAll in bench.go); printed so a fix shows here as 0.
	fmt.Fprintf(w, "race %s result_not_ready_retries=%d status_trials_done_short=%d\n", r.host.Workload, r.notReady, r.doneShort)
	fmt.Fprintf(w, "digest %s jobs=%d sha256=%s first%d_sha256=%s\n", r.host.Workload, r.jobs, r.digestAll, r.prefixJobs, r.digestPrefix)
	if r.spansPath != "" {
		fmt.Fprintf(w, "spans %s\n", r.spansPath)
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}
