// Command costsense regenerates every table and figure of the paper's
// evaluation on the simulator. Each experiment prints the measured
// weighted communication / time next to the bound the paper states, so
// the shapes can be compared directly (see EXPERIMENTS.md).
//
// Usage:
//
//	costsense [flags] exp <id>     run one experiment
//	costsense [flags] exp all      run every experiment
//	costsense list                 list experiment ids
//	costsense serve [flags]        persistent experiment service (HTTP API
//	                               with substrate cache and, with -journal,
//	                               crash recovery; see README, "Server mode")
//	costsense jobrun [flags]       submit one spec to a running server and
//	                               follow it to completion, resuming the
//	                               stream across server restarts
//
// Observability flags (see DESIGN.md, "Observability"):
//
//	-trace f.json     record one representative run per experiment as
//	                  Chrome trace_event JSON (Perfetto / about:tracing)
//	-metrics f.json   per-edge and per-class metrics of that run
//	-critpath f.json  happens-before critical path of that run: the causal
//	                  message chain realizing the completion time, with
//	                  on/off-path cost attribution and slack histogram
//	-progress         per-sweep progress lines (done/total, ETA) on stderr
//	-http addr        serve expvar (/debug/vars) and pprof (/debug/pprof)
//
// Chaos harness (see DESIGN.md, "Fault injection & reliable delivery"):
//
//	-faults spec      fault regime for `exp chaos`, e.g.
//	                  drop=0.1,dup=0.02,crash=1,down=2,seed=7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// experiment is one reproducible table/figure.
type experiment struct {
	id    string
	title string
	run   func(*tabwriter.Writer)
}

func experiments() []experiment {
	return []experiment{
		{"fig1", "Figure 1 — global function computation: O(𝓥) comm, O(𝓓) time", expFig1},
		{"slt", "Figure 5/6 + Lemmas 2.4/2.5 — shallow-light tree bounds over q", expSLT},
		{"sltdist", "Theorem 2.7 — distributed SLT construction", expSLTDist},
		{"clock", "§3 — clock synchronizers α*, β*, γ*: pulse delay", expClock},
		{"synch", "§4, Lemma 4.8 — synchronizer γ_w per-pulse overhead", expSynch},
		{"controller", "§5, Corollary 5.1 — controller overhead and runaway cutoff", expController},
		{"fig2", "Figure 2 — connectivity: DFS, CONflood, CONhybrid vs min{𝓔, n𝓥}", expFig2},
		{"lowerbound", "§7.1, Lemma 7.2 — Ω(n𝓥) lower-bound family G_n", expLowerBound},
		{"fig3", "Figure 3 — MST algorithms", expFig3},
		{"fig4", "Figure 4 — SPT algorithms", expFig4},
		{"strips", "Figure 9 — SPTrecur strip-depth sweep", expStrips},
		{"cover", "Theorem 1.1 [AP91] — cover coarsening tradeoff", expCover},
		{"ablation", "design-choice ablations: β tree choice, γ* cover parameter", expAblation},
		{"routing", "routing application: table weight vs route quality per tree", expRouting},
		{"chaos", "robustness — fault injection + reliable delivery: graceful degradation", expChaos},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "costsense:", err)
		os.Exit(1)
	}
}

//costsense:ctx-ok CLI root: the debug listener is the only spawn, and it is cancelled by the deferred stopDebug before run returns
func run(args []string) error {
	fs := flag.NewFlagSet("costsense", flag.ContinueOnError)
	fs.StringVar(&instr.tracePath, "trace", "", "write a Chrome trace_event JSON of one representative run per experiment to `file`")
	fs.StringVar(&instr.metricsPath, "metrics", "", "write per-edge/per-class metrics JSON of that run to `file`")
	fs.StringVar(&instr.critpathPath, "critpath", "", "write the critical-path analysis JSON of that run to `file`")
	fs.BoolVar(&instr.progress, "progress", false, "report sweep progress (trials done/total, ETA) on stderr")
	fs.StringVar(&instr.httpAddr, "http", "", "serve expvar and pprof on `addr` (e.g. localhost:6060)")
	var faults string
	fs.StringVar(&faults, "faults", "", "fault `spec` for the chaos experiment, e.g. drop=0.1,dup=0.02,crash=1,down=2,seed=7")
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if faults != "" {
		sp, err := parseFaultSpec(faults)
		if err != nil {
			return err
		}
		chaosCfg = sp
	}
	instr.multi = false
	if instr.httpAddr != "" {
		// The debug listener lives for the rest of the invocation and is
		// shut down gracefully (in-flight scrapes finish) when run
		// returns.
		//costsense:ctx-ok process root: the CLI has no inherited context; stopDebug is deferred
		debugCtx, stopDebug := context.WithCancel(context.Background())
		defer stopDebug()
		go serveDebug(debugCtx, instr.httpAddr)
	}
	exps := experiments()
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "jobrun":
		return runJobrun(args[1:])
	case "verify":
		return verifyAll()
	case "list":
		for _, e := range exps {
			fmt.Printf("%-11s %s\n", e.id, e.title)
		}
		return nil
	case "exp":
		if len(args) < 2 {
			return usage()
		}
		want := args[1]
		byID := make(map[string]experiment, len(exps))
		ids := make([]string, 0, len(exps))
		for _, e := range exps {
			byID[e.id] = e
			ids = append(ids, e.id)
		}
		if want == "all" {
			instr.multi = true
			for _, e := range exps {
				if err := runOne(e); err != nil {
					return err
				}
			}
			return nil
		}
		e, ok := byID[want]
		if !ok {
			sort.Strings(ids)
			return fmt.Errorf("unknown experiment %q (have %v)", want, ids)
		}
		return runOne(e)
	default:
		return usage()
	}
}

func runOne(e experiment) error {
	instr.begin(e.id)
	fmt.Printf("== %s: %s\n\n", e.id, e.title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	e.run(w)
	if err := w.Flush(); err != nil {
		return fmt.Errorf("%s: writing results: %w", e.id, err)
	}
	fmt.Println()
	return instr.flush()
}

func usage() error {
	return fmt.Errorf("usage: costsense [-trace f] [-metrics f] [-critpath f] [-progress] [-http addr] [-faults spec] {list | exp <id> | exp all | verify | serve [-addr a] [-queue n] [-cache-mb n] [-drain d] [-journal f] [-job-timeout d] | jobrun [-server url] [-spec f]}")
}

// ratio formats a measured/bound quotient.
func ratio(measured, bound int64) string {
	if bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(measured)/float64(bound))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
