package obs

import (
	"bytes"
	"testing"

	"costsense/internal/graph"
	"costsense/internal/reliable"
	"costsense/internal/sim"
)

// runCausal runs one observed case with a fresh Causal observer and
// returns it alongside the run's Stats.
func runCausal(t *testing.T, c obsCase, extra ...sim.Option) (*Causal, *sim.Stats) {
	t.Helper()
	g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
	ca := NewCausal(g)
	opts := append([]sim.Option{sim.WithObserver(ca)}, extra...)
	_, st := runCase(t, c, opts...)
	return ca, st
}

// checkChain verifies the structural invariants of the exported
// critical path: rooted at Init, linked by cause, time-monotone, and
// consistent with the report's wire/gap decomposition.
func checkChain(t *testing.T, r *CausalReport) {
	t.Helper()
	if r.PathHops != len(r.Path) {
		t.Fatalf("PathHops %d != len(Path) %d", r.PathHops, len(r.Path))
	}
	if len(r.Path) == 0 {
		t.Fatal("empty critical path on a run with traffic")
	}
	if r.PathWire+r.PathGap != r.PathEnd {
		t.Errorf("PathWire %d + PathGap %d != PathEnd %d", r.PathWire, r.PathGap, r.PathEnd)
	}
	if r.PathEnd > r.FinishTime {
		t.Errorf("PathEnd %d exceeds FinishTime %d", r.PathEnd, r.FinishTime)
	}
	var wire int64
	prevArrive := int64(0)
	for i, h := range r.Path {
		if h.Hop != i {
			t.Errorf("hop %d numbered %d", i, h.Hop)
		}
		if i == 0 {
			if h.Cause != 0 {
				t.Errorf("chain root has Cause %d, want 0", h.Cause)
			}
		} else if h.Cause != r.Path[i-1].Seq {
			t.Errorf("hop %d: Cause %d != previous hop's Seq %d", i, h.Cause, r.Path[i-1].Seq)
		}
		if h.Gap != h.Send-prevArrive || h.Gap < 0 {
			t.Errorf("hop %d: Gap %d, send %d, previous arrival %d", i, h.Gap, h.Send, prevArrive)
		}
		if h.Arrive <= h.Send {
			t.Errorf("hop %d: arrive %d <= send %d", i, h.Arrive, h.Send)
		}
		if h.Wait != h.Arrive-h.Send-h.Delay || h.Wait < 0 {
			t.Errorf("hop %d: Wait %d with arrive %d, send %d, delay %d", i, h.Wait, h.Arrive, h.Send, h.Delay)
		}
		wire += h.Arrive - h.Send
		prevArrive = h.Arrive
	}
	if wire != r.PathWire {
		t.Errorf("sum of hop transit %d != PathWire %d", wire, r.PathWire)
	}
	if last := r.Path[len(r.Path)-1]; last.Arrive != r.PathEnd {
		t.Errorf("last hop arrives at %d, PathEnd is %d", last.Arrive, r.PathEnd)
	}
}

// checkAttribution verifies that the on/off-path cost split is a
// partition of the run's own Stats, per class and per phase, with
// duplicates excluded and drops counted exactly as Stats does.
func checkAttribution(t *testing.T, r *CausalReport, st *sim.Stats) {
	t.Helper()
	if got := r.OnPathComm + r.OffPathComm; got != st.Comm {
		t.Errorf("OnPathComm %d + OffPathComm %d != Stats.Comm %d", r.OnPathComm, r.OffPathComm, st.Comm)
	}
	if got := r.OnPathMessages + r.OffPathMessages; got != st.Messages {
		t.Errorf("on+off messages %d != Stats.Messages %d", got, st.Messages)
	}
	var clOn, clOff int64
	for i, cl := range r.Classes {
		clOn += cl.OnComm
		clOff += cl.OffComm
		if want := st.CommOf(sim.Class(cl.Class)); cl.OnComm+cl.OffComm != want {
			t.Errorf("class %s: on %d + off %d != Stats.CommOf %d", cl.Class, cl.OnComm, cl.OffComm, want)
		}
		if i > 0 && r.Classes[i-1].Class >= cl.Class {
			t.Errorf("classes not sorted: %q before %q", r.Classes[i-1].Class, cl.Class)
		}
	}
	if clOn != r.OnPathComm || clOff != r.OffPathComm {
		t.Errorf("class totals (%d, %d) != report totals (%d, %d)", clOn, clOff, r.OnPathComm, r.OffPathComm)
	}
	var phOn, phOff int64
	for d, ph := range r.Phases {
		if ph.Depth != d {
			t.Errorf("phase %d labeled depth %d", d, ph.Depth)
		}
		phOn += ph.OnComm
		phOff += ph.OffComm
	}
	if phOn != r.OnPathComm || phOff != r.OffPathComm {
		t.Errorf("phase totals (%d, %d) != report totals (%d, %d)", phOn, phOff, r.OnPathComm, r.OffPathComm)
	}
}

// checkSlack verifies the slack histogram: every delivered transmission
// lands in exactly one bucket, the critical chain sits in the zero
// bucket, and bucket bounds are the documented powers of two.
func checkSlack(t *testing.T, r *CausalReport) {
	t.Helper()
	if len(r.Slack) == 0 {
		t.Fatal("no slack histogram on a run with deliveries")
	}
	var total int64
	for b, s := range r.Slack {
		total += s.Count
		wantLo, wantHi := int64(0), int64(0)
		if b > 0 {
			wantLo = int64(1) << (b - 1)
			wantHi = int64(1)<<b - 1
		}
		if s.Lo != wantLo || s.Hi != wantHi {
			t.Errorf("bucket %d spans [%d, %d], want [%d, %d]", b, s.Lo, s.Hi, wantLo, wantHi)
		}
	}
	if total != r.Delivered {
		t.Errorf("slack histogram covers %d transmissions, Delivered is %d", total, r.Delivered)
	}
	if r.Slack[0].Count < int64(r.PathHops) {
		t.Errorf("zero-slack bucket holds %d < PathHops %d (the chain itself has no slack)", r.Slack[0].Count, r.PathHops)
	}
}

// TestCausalReportInvariants: on a clean timer-free run the documented
// invariants hold with equality — the critical path realizes the
// completion time exactly, and the cost attribution partitions the
// run's own Stats.
func TestCausalReportInvariants(t *testing.T) {
	for _, c := range obsCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ca, st := runCausal(t, c)
			r := ca.Report()
			if !r.Quiesced || r.FinishTime != st.FinishTime {
				t.Fatalf("report finish (%v, %d) != Stats (%d)", r.Quiesced, r.FinishTime, st.FinishTime)
			}
			if r.Sends != st.Messages || r.Delivered != st.Events || r.Dropped != 0 || r.Dups != 0 {
				t.Fatalf("clean-run counts (%d sends, %d delivered, %d dropped, %d dups) != Stats (%d, %d, 0, 0)",
					r.Sends, r.Delivered, r.Dropped, r.Dups, st.Messages, st.Events)
			}
			// ackFlooder never schedules a timer, so completion is
			// realized by the chain's final delivery: equality, not <=.
			if r.PathEnd != r.FinishTime {
				t.Errorf("timer-free run: PathEnd %d != FinishTime %d", r.PathEnd, r.FinishTime)
			}
			if r.OnPathMessages != int64(r.PathHops) {
				t.Errorf("OnPathMessages %d != PathHops %d on a dup-free run", r.OnPathMessages, r.PathHops)
			}
			checkChain(t, r)
			checkAttribution(t, r, st)
			checkSlack(t, r)
		})
	}
}

// TestCausalFaultyReportInvariants: under drops, duplicates, outages
// and a crash — with the reliable layer's retransmission timers in the
// causal graph — the invariants weaken exactly as documented: the path
// end is a lower bound on completion, and attribution still partitions
// Stats.Comm (drops counted, duplicate copies excluded).
func TestCausalFaultyReportInvariants(t *testing.T) {
	for _, c := range obsCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
			opt, _ := reliable.Install(reliable.Config{})
			ca, st := runCausal(t, c, opt,
				sim.WithFaults(faultyPlan(g)), sim.WithEventLimit(5_000_000))
			r := ca.Report()
			if r.Dropped == 0 || r.Dups == 0 {
				t.Fatalf("chaos plan produced %d drops and %d dups; test is vacuous", r.Dropped, r.Dups)
			}
			if r.FinishTime != st.FinishTime {
				t.Fatalf("report finish %d != Stats %d", r.FinishTime, st.FinishTime)
			}
			checkChain(t, r)
			checkAttribution(t, r, st)
			checkSlack(t, r)
		})
	}
}

// causalPair runs one case and returns the two causal export artifacts.
func causalPair(t *testing.T, c obsCase, extra ...sim.Option) (jsonOut, csvOut []byte) {
	t.Helper()
	ca, _ := runCausal(t, c, extra...)
	var jb, cb bytes.Buffer
	if err := ca.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := ca.WritePathCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestCausalExportsByteIdentical: two runs of the same seed (and fault
// plan) export byte-identical critical-path JSON and CSV.
func TestCausalExportsByteIdentical(t *testing.T) {
	for _, c := range obsCases() {
		for _, faulty := range []bool{false, true} {
			c, faulty := c, faulty
			name := c.name
			if faulty {
				name += "/faulty"
			}
			t.Run(name, func(t *testing.T) {
				var jsonOut, csvOut [2][]byte
				for i := 0; i < 2; i++ {
					var common []sim.Option
					if faulty {
						g := graph.RandomConnected(40, 120, graph.UniformWeights(32, 7), 7)
						opt, _ := reliable.Install(reliable.Config{})
						common = []sim.Option{opt, sim.WithFaults(faultyPlan(g)), sim.WithEventLimit(5_000_000)}
					}
					jsonOut[i], csvOut[i] = causalPair(t, c, common...)
				}
				if !bytes.Equal(jsonOut[0], jsonOut[1]) {
					t.Error("critical-path JSON differs between two runs of the same seed")
				}
				if !bytes.Equal(csvOut[0], csvOut[1]) {
					t.Error("critical-path CSV differs between two runs of the same seed")
				}
				header, _, _ := bytes.Cut(csvOut[0], []byte("\n"))
				if n := bytes.Count(header, []byte(",")) + 1; n != 14 {
					t.Errorf("path CSV header has %d columns, want 14: %s", n, header)
				}
			})
		}
	}
}

// TestCausalRunStatsIdentical: the causal observer must not perturb the
// run — same Stats as the unobserved run of the same seed.
func TestCausalRunStatsIdentical(t *testing.T) {
	for _, c := range obsCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, plain := runCase(t, c)
			_, observed := runCausal(t, c)
			if flatten(plain) != flatten(observed) {
				t.Errorf("causal-observed run diverged:\n got  %v\n want %v", flatten(observed), flatten(plain))
			}
		})
	}
}

// TestSummarizeCausal: cross-trial aggregation picks the true worst
// trial, lower medians over realized values, and skips nil entries.
func TestSummarizeCausal(t *testing.T) {
	cases := obsCases()
	reports := make([]*CausalReport, 0, 4)
	reports = append(reports, nil) // a skipped trial
	var worstEnd int64
	worstIdx := -1
	ends := []int64{}
	for _, c := range []obsCase{
		{"a", sim.DelayUniform{}, false, 3},
		{"b", sim.DelayUniform{}, true, 17},
		{"c", cases[0].delay, false, 1},
	} {
		ca, _ := runCausal(t, c)
		r := ca.Report()
		if r.PathEnd > worstEnd {
			worstEnd = r.PathEnd
			worstIdx = len(reports)
		}
		ends = append(ends, r.PathEnd)
		reports = append(reports, r)
	}
	s := SummarizeCausal(reports)
	if s.Trials != 3 {
		t.Fatalf("Trials = %d, want 3 (nil skipped)", s.Trials)
	}
	if s.WorstPathEnd != worstEnd || s.WorstTrial != worstIdx {
		t.Errorf("worst = (%d, trial %d), want (%d, trial %d)", s.WorstPathEnd, s.WorstTrial, worstEnd, worstIdx)
	}
	if s.WorstHops != reports[worstIdx].PathHops {
		t.Errorf("WorstHops %d != worst trial's PathHops %d", s.WorstHops, reports[worstIdx].PathHops)
	}
	found := false
	for _, e := range ends {
		if e == s.MedianPathEnd {
			found = true
		}
	}
	if !found {
		t.Errorf("MedianPathEnd %d is not a realized value %v", s.MedianPathEnd, ends)
	}
	if s.MeanOnPathShare <= 0 || s.MeanOnPathShare > 1 {
		t.Errorf("MeanOnPathShare %v outside (0, 1]", s.MeanOnPathShare)
	}
	if z := SummarizeCausal(nil); z.Trials != 0 || z.WorstPathEnd != 0 {
		t.Errorf("empty summary not zero: %+v", z)
	}
}
