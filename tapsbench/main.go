// Command tapsbench is the repository's benchmark: it hosts the TAPS
// controller or simulator in-process, drives it with a workload generated
// from a seed, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// repeats its measurement with the layer wrappers on and prints the
// per-layer metrics instead, writes the spans as Chrome trace_event JSON
// and prints a per-layer self-time table on standard error.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash tapsbench/run.sh --workload ctl-steady --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload prints with
// -trace 0, with their units.
var endToEnd = map[string]string{
	"decision_p50_ms":      "ms",
	"decision_p99_ms":      "ms",
	"capacity_tasks_per_s": "1/s",
	"on_time_task_ratio":   "ratio",
	"sweep_s":              "s",
	"setup_s":              "s",
	"heap_live_mb":         "MB",
}

// perLayer lists the per-layer metrics printed with -trace 1. A metric
// whose layer does no work on a workload prints 0 there. Totals are per
// decision on ctl-* and per sweep on sim-fig7.
var perLayer = map[string]string{
	"netctl.broadcast_ms_mean":        "ms",
	"netctl.lock_wait_ms_mean":        "ms",
	"netctl.total_ms_mean":            "ms",
	"netctl.decode_us_mean":           "us",
	"netctl.plan_ms_mean":             "ms",
	"netctl.declog_sync_ms_mean":      "ms",
	"netctl.accepted_tasks_end":       "count",
	"netctl.pending_flows_end":        "count",
	"netctl.overlap_violations":       "count",
	"netctl.probes_dropped":           "count",
	"declog.bytes_per_decision":       "B",
	"declog.records_per_decision":     "count",
	"wire.tx_frames_per_decision":     "count",
	"wire.tx_bytes_per_decision":      "B",
	"wire.write_busy_ms_per_decision": "ms",
	"wire.rx_frames_per_decision":     "count",
	"core.replans_per_decision":       "count",
	"core.replan_flows_per_decision":  "count",
	"core.reject_ratio":               "ratio",
	"core.preempt_ratio":              "ratio",
	"core.arrival_busy_s":             "s",
	"core.arrival_us_mean":            "us",
	"core.rates_busy_s":               "s",
	"core.rates_calls":                "count",
	"core.finish_busy_s":              "s",
	"topology.paths_calls":            "count",
	"topology.paths_busy_ms":          "ms",
	"sim.engine_self_s":               "s",
	"sim.events":                      "count",
	"runtime.alloc_mb":                "MB",
	"runtime.gc_pause_ms":             "ms",
	"loadgen.lag_p99_ms":              "ms",
	"loadgen.decisions":               "count",
	"bench.trace_overhead_ratio":      "ratio",
}

// runOpts are the command-line settings a workload runs with.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// report is one workload run's outcome.
type report struct {
	metrics    map[string]metric
	attempted  int64
	failed     int64
	violations []string // broken invariants; any makes the run incorrect
	trace      *Tracer  // traced runs only
}

// put records a metric under its registered unit.
func (r *report) put(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("tapsbench: unregistered metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*report, error){
	"ctl-steady": func(o runOpts) (*report, error) { return runCtl("ctl-steady", ctlSteady, o) },
	"ctl-storm":  func(o runOpts) (*report, error) { return runCtl("ctl-storm", ctlStorm, o) },
	"sim-fig7":   func(o runOpts) (*report, error) { return runSim(simFig7, o) },
}

// finish completes a report for printing: per-layer metrics a workload
// does not exercise read 0, and a missing end-to-end metric is an error.
func finish(rep *report, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	for name := range want {
		if _, ok := rep.metrics[name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("workload did not measure %s", name)
		}
		rep.put(name, 0)
	}
	return nil
}

// writeResult prints the result line: correctness, operation counts and
// every metric with its unit.
func writeResult(w io.Writer, rep *report) error {
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.violations) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ctl-steady, ctl-storm or sim-fig7")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 30, "measured time per run")
		trace   = flag.Int("trace", 0, "1: per-layer run with the wrappers on")
		outDir  = flag.String("out", ".bench_build/out", "directory for the decision logs and the trace")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "tapsbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tapsbench:", err)
		os.Exit(1)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	rep, err := run(o)
	if err == nil {
		err = finish(rep, o.trace)
	}
	if err == nil && rep.trace != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		err = rep.trace.WriteChromeFile(path)
		fmt.Fprintf(os.Stderr, "## per-layer self time (%s, seed %d; spans in %s)\n%s",
			*name, *seed, path, rep.trace.SelfTimeTable())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapsbench:", err)
		os.Exit(1)
	}
	for _, v := range rep.violations {
		fmt.Fprintln(os.Stderr, "tapsbench: check failed:", v)
	}
	if err := writeResult(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "tapsbench:", err)
		os.Exit(1)
	}
	if len(rep.violations) > 0 {
		os.Exit(1)
	}
}
