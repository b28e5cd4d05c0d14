package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only behind -http
	"os"
	"path/filepath"
	"strings"
	"time"

	"costsense"
)

// instruments holds the observability configuration parsed from the
// global flags, plus the per-experiment observer state. One experiment
// gets at most one instrumented run: the first run site that calls
// instrOpts claims the observers, so `-trace` on a sweep records a
// representative execution, not an arbitrary interleaving of all of
// them.
type instruments struct {
	tracePath    string // -trace: Chrome trace_event JSON output file
	metricsPath  string // -metrics: per-edge/per-class metrics JSON output file
	critpathPath string // -critpath: critical-path analysis JSON output file
	progress     bool   // -progress: per-sweep progress lines on stderr
	httpAddr     string // -http: expvar + pprof debug server address
	multi        bool   // running several experiments: tag output files by id

	expID   string
	armed   bool
	trace   *costsense.TraceObserver
	metrics *costsense.MetricsObserver
	causal  *costsense.CausalObserver
}

var instr instruments

// Sweep progress gauges, served at /debug/vars when -http is set and
// updated by the -progress sink.
var (
	trialsDone  = expvar.NewInt("costsense_trials_done")
	trialsTotal = expvar.NewInt("costsense_trials_total")
)

// begin resets the per-experiment observer slot.
func (in *instruments) begin(expID string) {
	in.expID = expID
	in.armed = in.tracePath != "" || in.metricsPath != "" || in.critpathPath != ""
	in.trace = nil
	in.metrics = nil
	in.causal = nil
}

// instrOpts claims the current experiment's observer slot for a run
// over g and returns the simulator options attaching the requested
// observers; later calls (and runs without -trace/-metrics) get nil.
// Call it only from serial driver code, never inside RunTrials
// closures — first-wins under parallel scheduling would record
// whichever trial a worker reached first.
func instrOpts(g *costsense.Graph) []costsense.Option {
	if !instr.armed {
		return nil
	}
	instr.armed = false
	obs := make([]costsense.Observer, 0, 3)
	if instr.metricsPath != "" {
		instr.metrics = costsense.NewMetricsObserver(g)
		obs = append(obs, instr.metrics)
	}
	if instr.tracePath != "" {
		instr.trace = costsense.NewTraceObserver(g)
		obs = append(obs, instr.trace)
	}
	if instr.critpathPath != "" {
		instr.causal = costsense.NewCausalObserver(g)
		obs = append(obs, instr.causal)
	}
	return []costsense.Option{costsense.WithObserver(costsense.NewTeeObserver(obs...))}
}

// flush writes the experiment's recorded artifacts to the -trace and
// -metrics files.
func (in *instruments) flush() error {
	if in.trace != nil {
		if err := writeArtifact(in.outPath(in.tracePath), "trace", in.trace.Export); err != nil {
			return err
		}
	}
	if in.metrics != nil {
		if err := writeArtifact(in.outPath(in.metricsPath), "metrics", in.metrics.WriteJSON); err != nil {
			return err
		}
	}
	if in.causal != nil {
		if err := writeArtifact(in.outPath(in.critpathPath), "critical path", in.causal.WriteJSON); err != nil {
			return err
		}
	}
	if in.armed {
		// -trace/-metrics was set but the experiment never ran a
		// simulation (e.g. the pure graph-theory experiments).
		fmt.Fprintf(os.Stderr, "costsense: experiment %s has no instrumentable simulation run\n", in.expID)
		in.armed = false
	}
	return nil
}

// outPath tags the configured output path with the experiment id when
// several experiments run in one invocation, so `exp all -trace
// out.json` writes out.clock.json, out.fig1.json, ...
func (in *instruments) outPath(p string) string {
	if !in.multi {
		return p
	}
	ext := filepath.Ext(p)
	return strings.TrimSuffix(p, ext) + "." + in.expID + ext
}

func writeArtifact(path, kind string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		//costsense:err-ok the write error is the one worth reporting; Close here only releases the fd
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "costsense: wrote %s to %s\n", kind, path)
	return nil
}

// runTrials is the drivers' RunTrials: identical results, plus the
// -progress sink (stderr lines and the expvar gauges) when enabled.
func runTrials[T any](n int, trial func(int) (T, error)) ([]T, error) {
	var sink costsense.TrialSink
	if instr.progress {
		p := costsense.NewProgressMeter(os.Stderr, instr.expID, 0)
		p.OnDone = func(done, total int) {
			trialsDone.Set(int64(done))
			trialsTotal.Set(int64(total))
		}
		sink = p
	}
	return costsense.RunTrialsObserved(n, trial, sink)
}

// serveDebug serves expvar (/debug/vars) and pprof (/debug/pprof)
// until ctx is cancelled, then shuts the listener down gracefully so
// an in-flight scrape isn't cut mid-response. Opt-in via -http;
// telemetry only.
func serveDebug(ctx context.Context, addr string) {
	fmt.Fprintf(os.Stderr, "costsense: serving /debug/vars and /debug/pprof on %s\n", addr)
	srv := &http.Server{Addr: addr, Handler: http.DefaultServeMux}
	go func() {
		<-ctx.Done()
		//costsense:ctx-ok grace window: the parent ctx is already cancelled; the 2s budget must outlive it
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "costsense: debug server shutdown:", err)
			// Grace window elapsed with a scrape still in flight: cut
			// the remaining connections so the process can exit.
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "costsense: debug server close:", err)
			}
		}
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "costsense: debug server:", err)
	}
}
