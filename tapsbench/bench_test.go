package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Tiny sizes of every workload: same code paths, a fraction of a second.
var (
	tinyCtl = ctlParams{rate: 40, flows: 2, flowBytes: 125_000,
		deadline: 2 * simtime.Second, batchRate: 50, closedDeadline: 2 * simtime.Second,
		openFrac: 5.0 / 6}
	tinySim       = simParams{k: 4, tasks: 6, flowsPerTask: 4, draws: 2}
	tinyWorkloads = map[string]func(runOpts) (*report, error){
		"ctl-steady": func(o runOpts) (*report, error) { return runCtl("ctl-steady", tinyCtl, o) },
		"ctl-storm": func(o runOpts) (*report, error) {
			p := tinyCtl
			p.flowBytes, p.deadline = 1_250_000, 200*simtime.Millisecond
			p.closedDeadline, p.openFrac = 5*simtime.Millisecond, 5.0/12
			return runCtl("ctl-storm", p, o)
		},
		"sim-fig7": func(o runOpts) (*report, error) { return runSim(tinySim, o) },
	}
)

// result is the parsed result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	if len(tinyWorkloads) != len(workloads) {
		t.Fatalf("tiny workloads %d, workloads %d", len(tinyWorkloads), len(workloads))
	}
	for name, run := range tinyWorkloads {
		if _, ok := workloads[name]; !ok {
			t.Fatalf("tiny workload %s has no full-size twin", name)
		}
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 3, seconds: 1, trace: trace, outDir: t.TempDir()}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if err := finish(rep, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := writeResult(&buf, rep); err != nil {
				t.Fatal(err)
			}
			var r result
			if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
				t.Fatalf("%s: result line %q: %v", name, buf.String(), err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d violations=%v",
					name, trace, r.Correct, r.Attempted, r.Failed, rep.violations)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := r.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
			if trace {
				var chrome bytes.Buffer
				if err := rep.trace.WriteChrome(&chrome); err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: chrome trace has %d events (%v)", name, len(doc.TraceEvents), err)
				}
			}
		}
	}
}

// TestWireCountsScriptedExchange drives three tasks through a controller
// behind the wrapping listener. Every decision re-sends a grant for every
// task accepted so far to both agents, so the controller writes two
// welcomes plus 2*(1+2+3) grants, one Write per frame.
func TestWireCountsScriptedExchange(t *testing.T) {
	wire := &wireStats{}
	env, _, err := setupCtl(t.TempDir(), nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	defer env.releaseLog()
	g, _ := ctlTopology()
	hosts := agentHosts(g)
	flows := 0
	for task := int64(1); task <= 3; task++ {
		fs := []netctl.FlowInfo{
			{ID: uint64(task) << 8, Src: hosts[0], Dst: hosts[1], Size: 125_000},
			{ID: uint64(task)<<8 | 1, Src: hosts[1], Dst: hosts[0], Size: 125_000},
		}
		flows += len(fs)
		if err := env.agents[0].SubmitTask(task, 2*simtime.Second, fs); err != nil {
			t.Fatalf("task %d: %v", task, err)
		}
	}
	for _, a := range env.agents {
		a.WaitLocalFlows()
	}
	// Inbound: two hellos, three probes and one TERM per flow.
	wantRx := int64(2 + 3 + flows)
	for deadline := time.Now().Add(5 * time.Second); wire.rxFrames.Load() < wantRx && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := env.close(); err != nil {
		t.Fatal(err)
	}
	const wantTx = 2 + 2*(1+2+3)
	if got := wire.txFrames.Load(); got != wantTx {
		t.Errorf("controller Write calls = %d, want %d", got, wantTx)
	}
	if got := wire.txNewline.Load(); got != wantTx {
		t.Errorf("controller frames written = %d, want %d", got, wantTx)
	}
	if got := wire.rxFrames.Load(); got != wantRx {
		t.Errorf("controller frames read = %d, want %d", got, wantRx)
	}
}

func TestTamperedSimReferenceFailsCheck(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: tinySim.k, LinkCapacity: topology.Gbps(1)})
	routing := topology.NewCachedRouting(r)
	draws := genSimPoints(tinySim, 5)
	for d := range draws {
		for i := range draws[d] {
			pt := &draws[d][i]
			res, err := runPoint(g, routing, newSchedWrap(nil), pt.specs(tinySim, g), true)
			if err != nil {
				t.Fatal(err)
			}
			pt.setReference(res)
		}
	}
	if ps := runSimPass(tinySim, g, routing, draws, nil); ps.failed != 0 {
		t.Fatalf("untampered pass failed: %v", ps.errs)
	}
	draws[0][1].summary.TasksCompleted++
	draws[1][0].events++
	ps := runSimPass(tinySim, g, routing, draws, nil)
	if ps.failed != 2 || len(ps.errs) != 2 {
		t.Fatalf("tampered pass: %d failed (%v), want 2", ps.failed, ps.errs)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestStormClosedLoopIsDoomed(t *testing.T) {
	if !ctlStorm.doomed() || ctlSteady.doomed() {
		t.Errorf("doomed: ctl-storm %v, ctl-steady %v; want true, false", ctlStorm.doomed(), ctlSteady.doomed())
	}
}

func TestChunkWallsSplitsByCompletionRank(t *testing.T) {
	doneAt := []time.Duration{1, 2, 3, 4, 5, 7, 9}
	got := chunkWalls(doneAt, 2)
	want := []time.Duration{2, 2, 3} // the seventh completion is a remainder
	if len(got) != len(want) {
		t.Fatalf("chunkWalls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunkWalls = %v, want %v", got, want)
		}
	}
	if n := chunkSize(7); n != 1 {
		t.Errorf("chunkSize(7) = %d, want 1", n)
	}
	if n := chunkSize(2001); n != 200 {
		t.Errorf("chunkSize(2001) = %d, want 200", n)
	}
}

func TestTracerSelfTimeExcludesChildren(t *testing.T) {
	tr := NewTracer()
	tr.Push("sim.point", noTask)
	tr.Push("core.arrival", 7)
	time.Sleep(2 * time.Millisecond)
	tr.Pop()
	tr.Pop()
	_, busy, self := tr.Totals("sim.point")
	_, childBusy, _ := tr.Totals("core.arrival")
	if self != busy-childBusy {
		t.Errorf("self %v, want busy %v minus child %v", self, busy, childBusy)
	}
	spans, _ := tr.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Task != 7 {
		t.Errorf("spans %+v: want core.arrival (task 7) under sim.point", spans)
	}
}
