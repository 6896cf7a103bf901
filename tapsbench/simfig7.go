package main

// The sim-fig7 workload: the flow-level simulator runs the Fig. 7
// deadline sweep for TAPS alone on a fat-tree.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"taps/internal/experiments"
	"taps/internal/metrics"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// simParams sizes the sim-fig7 workload.
type simParams struct {
	k            int // fat-tree arity
	tasks        int // tasks per sweep point
	flowsPerTask int // mean flows per task
	draws        int // workload draws per pass; each draw is one sweep
}

// simFig7 keeps Fig. 7's fat-tree, task count, arrival rate and deadline
// axis, with smaller tasks and many draws per run: 64 draws average out
// how much one draw's cost depends on its seed.
var simFig7 = simParams{k: 8, tasks: 30, flowsPerTask: 50, draws: 64}

const (
	// fig7ArrivalRate is §V-A's task arrival rate (tasks/s, simulated).
	fig7ArrivalRate = 100
	// simSetupReps is the set-up cycles behind setup_s.
	simSetupReps = 201
)

// simMaxTime aborts a runaway point, as the experiments package does.
const simMaxTime = simtime.Time(4e12)

// simPoint is one sweep point's workload and validated reference outcome.
// Its task specs are regenerated from the seed whenever the point runs, so
// the benchmark's inputs do not swell the live heap the collector scans.
type simPoint struct {
	seed       int64
	deadlineMs float64
	summary    metrics.Summary
	events     int
}

// specs generates the point's tasks, as experiments.Fig7 does.
func (pt *simPoint) specs(p simParams, g *topology.Graph) []sim.TaskSpec {
	return workload.Generate(g, workload.Spec{
		Tasks:            p.tasks,
		MeanFlowsPerTask: p.flowsPerTask,
		ArrivalRate:      fig7ArrivalRate,
		MeanDeadline:     simtime.FromMillis(pt.deadlineMs),
		Seed:             pt.seed,
	})
}

// simSetup builds the program for one sweep: topology, cached routing,
// the TAPS scheduler and the engine of the first point. The timing starts
// after a collection, so every set-up finds the heap alike.
func simSetup(p simParams, specs []sim.TaskSpec) time.Duration {
	runtime.GC()
	t0 := time.Now()
	g, r := topology.FatTree(topology.FatTreeSpec{K: p.k, LinkCapacity: topology.Gbps(1)})
	routing := topology.NewCachedRouting(r)
	sim.New(g, routing, newSchedWrap(nil), specs, sim.Config{MaxTime: simMaxTime})
	return time.Since(t0)
}

// genSimPoints derives every point of every draw from seed: within a
// draw, every deadline shares one workload seed, as in experiments.Fig7.
func genSimPoints(p simParams, seed int64) [][]simPoint {
	rng := rand.New(rand.NewSource(seed))
	draws := make([][]simPoint, p.draws)
	for d := range draws {
		ws := rng.Int63()
		for _, dl := range experiments.DeadlineSweepPoints {
			draws[d] = append(draws[d], simPoint{seed: ws, deadlineMs: dl})
		}
	}
	return draws
}

// runPoint simulates one point's specs with a fresh TAPS scheduler behind
// sw.
func runPoint(g *topology.Graph, r topology.Routing, sw *schedWrap, specs []sim.TaskSpec, validate bool) (*sim.Result, error) {
	eng := sim.New(g, r, sw, specs, sim.Config{MaxTime: simMaxTime, Validate: validate})
	return eng.Run()
}

// setReference records a validated run as the point's reference.
func (pt *simPoint) setReference(res *sim.Result) {
	pt.summary = metrics.Summarize(res)
	pt.events = res.Events
}

// checkPoint compares a timed point with its validated reference.
func checkPoint(pt *simPoint, res *sim.Result) error {
	if got := metrics.Summarize(res); got != pt.summary {
		return fmt.Errorf("summary %v, reference %v", got, pt.summary)
	}
	if res.Events != pt.events {
		return fmt.Errorf("%d events, reference %d", res.Events, pt.events)
	}
	return nil
}

// simPass is what one pass over every draw observed.
type simPass struct {
	wall     time.Duration
	drawWall []time.Duration // per draw: the sweep's wall time
	points   int
	tasks    int
	events   int
	failed   int
	arrivals []time.Duration
	errs     []string

	// Reject-rule outcomes, summed over the pass's schedulers.
	replans, replanFlows, rejected, preempted int64
}

// runSimPass runs every point of every draw once and checks each against
// its reference. Its wall time sums the points' simulations and leaves
// out generating their inputs.
func runSimPass(p simParams, g *topology.Graph, r topology.Routing, draws [][]simPoint, tr *Tracer) simPass {
	ps := simPass{drawWall: make([]time.Duration, len(draws))}
	for d := range draws {
		for i := range draws[d] {
			pt := &draws[d][i]
			specs := pt.specs(p, g)
			sw := newSchedWrap(tr)
			t0 := time.Now()
			tr.Push("sim.point", noTask)
			res, err := runPoint(g, r, sw, specs, false)
			tr.Pop()
			ps.drawWall[d] += time.Since(t0)
			ps.points++
			ps.tasks += len(specs)
			ps.arrivals = append(ps.arrivals, sw.arrivals...)
			ps.replans += int64(sw.inner.Replans())
			ps.replanFlows += sw.replanFlows
			ps.rejected += sw.rejected
			ps.preempted += sw.preempted
			if err == nil {
				ps.events += res.Events
				err = checkPoint(pt, res)
			}
			if err != nil {
				ps.failed++
				ps.errs = append(ps.errs, fmt.Sprintf("draw %d point %d: %v", d, i, err))
			}
		}
		ps.wall += ps.drawWall[d]
	}
	return ps
}

// medianAcross returns, for every index i, the median over passes of
// f(pass)[i] in milliseconds. Every pass simulates the same points, so
// index i names the same work in each; its median filters out passes a
// collection or a neighbour happened to slow down.
func medianAcross(passes []simPass, f func(*simPass) []time.Duration) []float64 {
	out := make([]float64, len(f(&passes[0])))
	col := make([]float64, len(passes))
	for i := range out {
		for j := range passes {
			col[j] = ms(f(&passes[j])[i])
		}
		out[i] = median(col)
	}
	return out
}

// runSim runs the sim-fig7 workload.
func runSim(p simParams, o runOpts) (*report, error) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: p.k, LinkCapacity: topology.Gbps(1)})
	routing := topology.NewCachedRouting(r)
	draws := genSimPoints(p, o.seed)

	var setups []float64
	first := draws[0][0].specs(p, g)
	for i := 0; i < simSetupReps; i++ {
		setups = append(setups, simSetup(p, first).Seconds())
	}

	// Validated reference runs; they also fill the routing cache, so every
	// timed pass sees the same warm cache.
	var tcr []float64
	for d := range draws {
		for i := range draws[d] {
			pt := &draws[d][i]
			res, err := runPoint(g, routing, newSchedWrap(nil), pt.specs(p, g), true)
			if err != nil {
				return nil, fmt.Errorf("reference draw %d point %d: %w", d, i, err)
			}
			pt.setReference(res)
			tcr = append(tcr, pt.summary.TaskCompletionRatio())
		}
	}

	// Timed passes until the run's time is spent (at least two).
	budget := time.Duration(o.seconds * float64(time.Second))
	var passes []simPass
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(passes) < 2 || time.Since(start)+passes[len(passes)-1].wall <= budget {
		passes = append(passes, runSimPass(p, g, routing, draws, nil))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)

	rep := &report{metrics: map[string]metric{}}
	var events int
	for _, ps := range passes {
		rep.attempted += int64(ps.points)
		rep.failed += int64(ps.failed)
		rep.violations = append(rep.violations, ps.errs...)
		events += ps.events
	}
	// Each arrival's decision time and each sweep's wall time is the
	// median of its repetitions over the passes.
	arrivals := medianAcross(passes, func(ps *simPass) []time.Duration { return ps.arrivals })
	sweepMs := mean(medianAcross(passes, func(ps *simPass) []time.Duration { return ps.drawWall }))
	if len(rep.violations) > 10 {
		rep.violations = append(rep.violations[:10], fmt.Sprintf("... and %d more", len(rep.violations)-10))
	}
	if !o.trace {
		rep.put("decision_p50_ms", quantile(arrivals, 0.50))
		rep.put("decision_p99_ms", quantile(arrivals, 0.99))
		rep.put("capacity_tasks_per_s", float64(passes[0].tasks)/float64(len(draws))/(sweepMs/1e3))
		rep.put("on_time_task_ratio", mean(tcr))
		rep.put("sweep_s", sweepMs/1e3)
		rep.put("setup_s", median(setups))
		rep.put("heap_live_mb", float64(ms1.HeapAlloc)/1e6)
		return rep, nil
	}

	// Traced pass over the same points: wrappers on.
	tr := NewTracer()
	troute := &tracedRouting{inner: routing, tr: tr, nested: true}
	tps := runSimPass(p, g, troute, draws, tr)
	rep.attempted += int64(tps.points)
	rep.failed += int64(tps.failed)
	rep.violations = append(rep.violations, tps.errs...)
	if tps.events != passes[0].events {
		rep.violations = append(rep.violations, "traced pass differs from the untraced passes")
	}
	nSweeps := float64(len(draws))
	nd := float64(len(tps.arrivals))
	rep.put("core.replans_per_decision", ratio(float64(tps.replans), nd))
	rep.put("core.replan_flows_per_decision", ratio(float64(tps.replanFlows), nd))
	rep.put("core.reject_ratio", ratio(float64(tps.rejected), nd))
	rep.put("core.preempt_ratio", ratio(float64(tps.preempted), nd))
	ac, abusy, _ := tr.Totals("core.arrival")
	rep.put("core.arrival_busy_s", abusy.Seconds()/nSweeps)
	rep.put("core.arrival_us_mean", ratio(float64(abusy)/1e3, float64(ac)))
	rc, rbusy, _ := tr.Totals("core.rates")
	rep.put("core.rates_busy_s", rbusy.Seconds()/nSweeps)
	rep.put("core.rates_calls", float64(rc)/nSweeps)
	_, fbusy, _ := tr.Totals("core.finish")
	rep.put("core.finish_busy_s", fbusy.Seconds()/nSweeps)
	pc, pbusy, _ := tr.Totals("topology.paths")
	rep.put("topology.paths_calls", float64(pc)/nSweeps)
	rep.put("topology.paths_busy_ms", ms(pbusy)/nSweeps)
	_, _, self := tr.Totals("sim.point")
	rep.put("sim.engine_self_s", self.Seconds()/nSweeps)
	rep.put("sim.events", float64(events)/float64(len(passes))/nSweeps)
	nPass := float64(len(passes))
	rep.put("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/nPass/nSweeps)
	rep.put("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/nPass/nSweeps)
	rep.put("loadgen.decisions", float64(len(arrivals)))
	rep.put("bench.trace_overhead_ratio", ratio(ms(tps.wall)/nSweeps, sweepMs)-1)
	rep.trace = tr
	return rep, nil
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
