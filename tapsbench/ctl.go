package main

// The ctl-* workloads: the networked controller in-process over loopback,
// driven by one load generator holding two agent connections.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taps/internal/netctl"
	"taps/internal/obs/declog"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// ctlParams sizes one ctl workload.
type ctlParams struct {
	rate      float64      // open-loop arrivals per second
	flows     int          // flows per task
	flowBytes int64        // bytes per flow
	deadline  simtime.Time // relative task deadline (virtual µs; speedup 1)
	batchRate float64      // sizes the closed-loop batch: batchRate * closed-loop time
	// closedDeadline is the closed-loop tasks' relative deadline.
	closedDeadline simtime.Time
	// openFrac is the share of a round spent in the open loop; the closed
	// loop's batch takes about the rest. At 30 s a run, both workloads
	// send 200 open-loop probes a round, 1,000 a run.
	openFrac float64
}

var (
	ctlSteady = ctlParams{rate: 40, flows: 4, flowBytes: 125_000,
		deadline: 2 * simtime.Second, batchRate: 200, closedDeadline: 2 * simtime.Second,
		openFrac: 5.0 / 6}
	// ctlStorm offers about 1.6 times the two source uplinks in its open
	// loop. It sends them at twice ctl-steady's rate so that its closed
	// loop, the noisier measurement, gets more than half of each round.
	// Its closed-loop tasks are doomed: a 1.25 MB flow needs 10 ms on an
	// idle 1 Gbps link, twice their deadline, so every one takes the reject
	// path whatever the timing. Given the open loop's 200 ms instead, about
	// 2% were admitted, at a rate set by how fast earlier flows drained;
	// rounds that admitted more ran slower, and slower rounds admitted more.
	ctlStorm = ctlParams{rate: 80, flows: 4, flowBytes: 1_250_000,
		deadline: 200 * simtime.Millisecond, batchRate: 2000, closedDeadline: 5 * simtime.Millisecond,
		openFrac: 5.0 / 12}
)

const (
	// agentConns is the number of agent connections: one per CPU of the
	// 2-vCPU machine the benchmark was sized on.
	agentConns = 2
	// ctlRounds splits a run into rounds of equal length, each on a fresh
	// controller: a controller's decision latency grows with the tasks it
	// has accepted, so the rounds repeat one latency profile and the
	// pooled percentiles vary less from run to run than one long round's.
	ctlRounds = 5
	// window is the closed-loop probes outstanding per connection: one,
	// so that the probes in flight match the machine's 2 vCPUs.
	window = 1
	// closedChunks splits each round's closed-loop batch, in the order its
	// decisions complete, into chunks of equal size. The closed-loop metrics
	// take the median chunk's pace: a neighbour on a shared host slows a
	// few chunks (measured on a 2-vCPU VM: 0.5-1 s spells at 1.6-1.9 times
	// the usual chunk time), which moved a batch's wall time by up to 40%.
	closedChunks = 10
	// ctlSetupReps is the extra set-up/tear-down cycles behind setup_s.
	ctlSetupReps = 60
)

// drainTimeout bounds how long a phase waits for outstanding decisions.
const drainTimeout = 10 * time.Second

// probe is one generated task submission.
type probe struct {
	due   time.Duration // open loop: send offset from the phase start
	agent int           // index of the submitting connection
	task  int64
	flows []netctl.FlowInfo
}

// decision is what the load generator observed for one probe.
type decision struct {
	decided  bool
	accepted bool
	latency  time.Duration // open loop: due time to decision arrival
	lag      time.Duration // open loop: how late the send started
}

// ctlInputs are the generated inputs of one round: the open-loop schedule
// and the closed-loop batch.
type ctlInputs struct {
	open   []probe
	closed []probe
}

// agentHosts picks one host in each of agentConns different pods.
func agentHosts(g *topology.Graph) []topology.NodeID {
	var hosts []topology.NodeID
	seen := map[int]bool{}
	for _, h := range g.Hosts() {
		pod := g.Node(h).Pod
		// Every other pod, so the two sources share no edge or agg switch.
		if pod%2 != 0 || seen[pod] {
			continue
		}
		seen[pod] = true
		hosts = append(hosts, h)
		if len(hosts) == agentConns {
			break
		}
	}
	return hosts
}

// ctlLink is the capacity of every link of the controller's fat-tree, in
// bytes per second.
var ctlLink = topology.Gbps(1)

// ctlTopology is the k=4 fat-tree the controller runs on.
func ctlTopology() (*topology.Graph, topology.Routing) {
	return topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: ctlLink})
}

// doomed reports whether a closed-loop flow alone on an idle link would
// still miss its deadline; the reject rule must then turn down every
// closed-loop task.
func (p ctlParams) doomed() bool {
	return float64(p.flowBytes)/ctlLink*float64(simtime.Second) > float64(p.closedDeadline)
}

// genCtlInputs builds the open-loop schedule (exactly rate*openDur tasks,
// arrival instants uniform over the phase: a Poisson process conditioned
// on its count) and a closed-loop batch, all from seed. Every flow's source
// is an agent host: a flow whose source runs no agent never reports TERM.
func genCtlInputs(p ctlParams, seed int64, openDur time.Duration, batch int) ctlInputs {
	g, _ := ctlTopology()
	srcs, dsts := agentHosts(g), g.Hosts()
	var in ctlInputs
	rng := rand.New(rand.NewSource(seed))
	var next int64 = 1
	mk := func() probe {
		pr := probe{agent: rng.Intn(agentConns), task: next}
		next++
		for i := 0; i < p.flows; i++ {
			src := srcs[rng.Intn(len(srcs))]
			dst := src
			for dst == src {
				dst = dsts[rng.Intn(len(dsts))]
			}
			pr.flows = append(pr.flows, netctl.FlowInfo{
				ID: uint64(pr.task)<<8 | uint64(i), Src: src, Dst: dst, Size: p.flowBytes,
			})
		}
		return pr
	}
	n := int(p.rate * openDur.Seconds())
	if n < 1 {
		n = 1
	}
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(openDur)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for _, d := range dues {
		pr := mk()
		pr.due = d
		in.open = append(in.open, pr)
	}
	for i := 0; i < batch; i++ {
		in.closed = append(in.closed, mk())
	}
	return in
}

// ctlEnv is one running controller with its agents.
type ctlEnv struct {
	ctl        *netctl.Controller
	agents     []*netctl.Agent
	serveDone  chan error
	routing    *tracedRouting // nil when untraced
	logPath    string         // the decision log
	releaseLog func()         // frees the log once it has been read back
}

// setupCtl builds the program: topology, cached routing, controller,
// decision log, listener and agent dials. The elapsed time is setup_s;
// it starts after a collection, so every set-up finds the heap alike.
// wire and tr are nil in untraced runs.
func setupCtl(logDir string, tr *Tracer, wire *wireStats) (*ctlEnv, time.Duration, error) {
	logPath, release, err := newLogPath(logDir, "decisions.dlg")
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	g, r := ctlTopology()
	routing := topology.NewCachedRouting(r)
	env := &ctlEnv{serveDone: make(chan error, 1), logPath: logPath, releaseLog: release}
	if tr != nil {
		env.routing = &tracedRouting{inner: routing, tr: tr}
		routing = env.routing
	}
	env.ctl = netctl.NewController(g, routing, netctl.ControllerConfig{})
	if err := env.ctl.EnableDecisionLog(logPath); err != nil {
		release()
		return nil, 0, fmt.Errorf("decision log: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.ctl.Close()
		release()
		return nil, 0, err
	}
	var ln net.Listener = l
	if wire != nil {
		ln = &wireListener{Listener: l, stats: wire, tr: tr}
	}
	go func() { env.serveDone <- env.ctl.ServeListener(ln) }()
	for i, h := range agentHosts(g) {
		a, err := netctl.Dial(l.Addr().String(), fmt.Sprintf("bench%d", i), h)
		if err != nil {
			env.close()
			release()
			return nil, 0, err
		}
		env.agents = append(env.agents, a)
	}
	return env, time.Since(t0), nil
}

// close tears the environment down and waits for the serve loop to end;
// the decision log stays readable until releaseLog.
func (e *ctlEnv) close() error {
	for _, a := range e.agents {
		a.Close()
	}
	err := e.ctl.Close()
	if serr := <-e.serveDone; err == nil {
		err = serr
	}
	return err
}

// ctlRound is everything one measured round observed.
type ctlRound struct {
	open       []decision
	closed     []decision      // closed-loop batch, in pool order
	chunks     []time.Duration // wall time of each closed-loop chunk
	onTime     int             // open-loop tasks admitted with every flow on time
	heapLive   uint64
	alloc      uint64 // bytes allocated during the measured phases
	gcPause    time.Duration
	health     netctl.Health
	snap       netctl.Snapshot
	stages     map[netctl.Stage][2]float64 // count, sum (ns)
	log        logSummary
	routing    *tracedRouting // traced rounds only
	violations []string
}

// submit sends one probe and waits for its decision; a transport error
// leaves the probe undecided.
func submit(a *netctl.Agent, p probe, deadline simtime.Time) decision {
	err := a.SubmitTask(p.task, deadline, p.flows)
	return decision{decided: err == nil || errors.Is(err, netctl.ErrRejected), accepted: err == nil}
}

// runCtlRound sets up a controller, runs the open-loop phase then the
// closed-loop phase, drains, checks the invariants and tears down.
func runCtlRound(p ctlParams, in ctlInputs, openDur time.Duration,
	logDir string, tr *Tracer, wire *wireStats) (*ctlRound, time.Duration, error) {

	env, setup, err := setupCtl(logDir, tr, wire)
	if err != nil {
		return nil, 0, err
	}
	rd := &ctlRound{routing: env.routing}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Open loop: each probe is sent at its due time whatever the state
	// of earlier ones; latency counts from the due time.
	rd.open = make([]decision, len(in.open))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range in.open {
		pr := in.open[i]
		due := start.Add(pr.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Begin("loadgen.probe", pr.task)
			d := submit(env.agents[pr.agent], pr, p.deadline)
			d.latency = time.Since(due)
			tr.End(sp)
			d.lag = lag
			rd.open[i] = d
		}(i)
	}
	if sleep := time.Until(start.Add(openDur)); sleep > 0 {
		time.Sleep(sleep)
	}

	// Closed loop: every connection keeps window probes outstanding
	// until the batch of in.closed probes is decided.
	rd.closed = make([]decision, len(in.closed))
	doneAt := make([]time.Duration, len(in.closed)) // by completion rank
	var cwg sync.WaitGroup
	var next, done atomic.Int64
	cstart := time.Now()
	for a := range env.agents {
		for w := 0; w < window; w++ {
			cwg.Add(1)
			go func(a int) {
				defer cwg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(in.closed) {
						return
					}
					rd.closed[i] = submit(env.agents[a], in.closed[i], p.closedDeadline)
					doneAt[done.Add(1)-1] = time.Since(cstart)
				}
			}(a)
		}
	}
	if !waitTimeout(&cwg, drainTimeout+time.Duration(len(in.closed))*10*time.Millisecond) {
		rd.violations = append(rd.violations, "closed-loop decisions still outstanding after the drain timeout")
	}
	if !waitTimeout(&wg, drainTimeout) {
		rd.violations = append(rd.violations, "open-loop decisions still outstanding after the drain timeout")
	}
	for _, a := range env.agents {
		a.WaitLocalFlows()
	}

	// Two collections: the second also empties the sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rd.heapLive = ms1.HeapAlloc
	rd.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	rd.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	rd.health = env.ctl.Health()
	rd.snap = env.ctl.Snapshot()
	rd.stages = make(map[netctl.Stage][2]float64)
	for _, s := range []netctl.Stage{netctl.StageDecode, netctl.StageLockWait, netctl.StagePlan,
		netctl.StageDeclogSync, netctl.StageBroadcast, netctl.StageTotal} {
		sk := env.ctl.StageSketch(s)
		rd.stages[s] = [2]float64{float64(sk.TotalCount()), float64(sk.TotalSum())}
	}
	var outcomes []netctl.FlowOutcome
	for _, a := range env.agents {
		outcomes = append(outcomes, a.Outcomes()...)
	}
	if err := env.close(); err != nil {
		rd.violations = append(rd.violations, "controller close: "+err.Error())
	}
	// Probes still waiting after a drain timeout fail once the connections
	// close; wait for them so every decision slot is settled.
	wg.Wait()
	cwg.Wait()
	rd.chunks = chunkWalls(doneAt, chunkSize(len(in.closed)))
	if p.doomed() {
		admitted := 0
		for _, d := range rd.closed {
			if d.accepted {
				admitted++
			}
		}
		if admitted > 0 {
			rd.violations = append(rd.violations, fmt.Sprintf("%d closed-loop tasks admitted that cannot meet their deadline", admitted))
		}
	}
	if rd.health.Status != "ok" {
		rd.violations = append(rd.violations, "controller health: "+rd.health.Status)
	}
	rd.log, err = readLog(env.logPath)
	env.releaseLog()
	if err != nil {
		return nil, 0, err
	}
	rd.violations = append(rd.violations, checkLog(rd, in, rd.log)...)
	rd.onTime = countOnTime(in.open, rd.open, outcomes, rd.log.preempted)
	return rd, setup, nil
}

// chunkSize is the decisions per closed-loop chunk for a batch.
func chunkSize(batch int) int { return max(batch/closedChunks, 1) }

// chunkWalls splits completion times, ordered by completion rank and
// counted from the phase start, into chunks of size completions and
// returns each chunk's wall time. A remainder smaller than size is left
// out.
func chunkWalls(doneAt []time.Duration, size int) []time.Duration {
	walls := make([]time.Duration, len(doneAt)/size)
	var prev time.Duration
	for k := range walls {
		end := doneAt[(k+1)*size-1]
		walls[k] = end - prev
		prev = end
	}
	return walls
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// countOnTime counts open-loop tasks that were admitted, never preempted,
// and whose every flow finished by its deadline per Agent.Outcomes.
func countOnTime(ps []probe, ds []decision, outs []netctl.FlowOutcome, preempted map[int64]bool) int {
	onTime := make(map[uint64]bool, len(outs))
	for _, o := range outs {
		onTime[o.ID] = o.OnTime
	}
	n := 0
	for i, p := range ps {
		if !ds[i].accepted || preempted[p.task] {
			continue
		}
		ok := true
		for _, f := range p.flows {
			if !onTime[f.ID] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// logSummary is what the decision log read back holds.
type logSummary struct {
	bytes       int64
	records     int
	admitted    map[int64]int // Admit records plus Preempt newcomers, per task
	rejected    map[int64]int
	preempted   map[int64]bool // preemption victims
	replans     int
	replanFlows int
	truncated   bool
}

// readLog reads the decision log back with declog.ReadFile.
func readLog(path string) (logSummary, error) {
	recs, truncated, err := declog.ReadFile(path)
	if err != nil {
		return logSummary{}, fmt.Errorf("read decision log: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return logSummary{}, err
	}
	ls := logSummary{bytes: st.Size(), records: len(recs), truncated: truncated,
		admitted: map[int64]int{}, rejected: map[int64]int{}, preempted: map[int64]bool{}}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case declog.KindAdmit:
			ls.admitted[r.Task]++
		case declog.KindPreempt:
			ls.admitted[r.By]++
			ls.preempted[r.Task] = true
		case declog.KindReject:
			ls.rejected[r.Task]++
		case declog.KindReplan:
			ls.replans++
			ls.replanFlows += r.Replan.Flows
		default: //taps:allow kindexhaustive the summary tallies decisions and planning passes; every other record only counts toward records
		}
	}
	return ls, nil
}

// checkLog verifies the ctl invariants: every probe got exactly one
// decision, the log has no torn tail, and its Admit (or Preempt-newcomer)
// and Reject records equal the decisions the agents received.
func checkLog(rd *ctlRound, in ctlInputs, ls logSummary) []string {
	var v []string
	if ls.truncated {
		v = append(v, "decision log has a torn tail")
	}
	decided := 0
	check := func(ps []probe, ds []decision) {
		for i, p := range ps {
			d := ds[i]
			if !d.decided {
				continue
			}
			decided++
			a, r := ls.admitted[p.task], ls.rejected[p.task]
			if a+r != 1 {
				v = append(v, fmt.Sprintf("task %d: %d admit and %d reject records, want exactly one", p.task, a, r))
			} else if (a == 1) != d.accepted {
				v = append(v, fmt.Sprintf("task %d: agent saw accepted=%v, log disagrees", p.task, d.accepted))
			}
		}
	}
	check(in.open, rd.open)
	check(in.closed, rd.closed)
	logged := 0
	for _, n := range ls.admitted {
		logged += n
	}
	for _, n := range ls.rejected {
		logged += n
	}
	if logged != decided {
		v = append(v, fmt.Sprintf("decision log holds %d decisions, agents received %d", logged, decided))
	}
	if len(v) > 10 {
		v = append(v[:10], fmt.Sprintf("... and %d more", len(v)-10))
	}
	return v
}

// ctlRun is the rounds of one run, each on a fresh controller.
type ctlRun []*ctlRound

// failures counts the run's failed operations: transport errors, probes
// with no decision, and probes the controller dropped.
func (run ctlRun) failures() (attempted, failed int64) {
	for _, rd := range run {
		for _, ds := range [][]decision{rd.open, rd.closed} {
			for _, d := range ds {
				attempted++
				if !d.decided {
					failed++
				}
			}
		}
		failed += int64(rd.health.ProbesDropped)
	}
	return attempted, failed
}

// decided counts the probes of both phases that received a decision.
func (run ctlRun) decided() float64 {
	n := 0
	for _, rd := range run {
		for _, ds := range [][]decision{rd.open, rd.closed} {
			for _, d := range ds {
				if d.decided {
					n++
				}
			}
		}
	}
	return float64(n)
}

// openLatencies returns the open-loop decision latencies and send lags of
// every round in milliseconds.
func (run ctlRun) openLatencies() (lat, lag []float64) {
	for _, rd := range run {
		for _, d := range rd.open {
			if d.decided {
				lat = append(lat, ms(d.latency))
			}
			lag = append(lag, ms(d.lag))
		}
	}
	return lat, lag
}

// sum adds up one per-round quantity.
func (run ctlRun) sum(f func(*ctlRound) float64) float64 {
	var s float64
	for _, rd := range run {
		s += f(rd)
	}
	return s
}

// stageMean is the mean of one controller stage over every round, in unit.
func (run ctlRun) stageMean(s netctl.Stage, unit time.Duration) float64 {
	n := run.sum(func(rd *ctlRound) float64 { return rd.stages[s][0] })
	t := run.sum(func(rd *ctlRound) float64 { return rd.stages[s][1] })
	return ratio(t, n) / float64(unit)
}

// allAdmitted reports whether every open-loop probe was admitted, which
// makes the run's decisions independent of timing.
func (run ctlRun) allAdmitted() bool {
	for _, rd := range run {
		for _, d := range rd.open {
			if !d.accepted {
				return false
			}
		}
	}
	return true
}

// decisionsEqual reports whether two runs over the same inputs reached the
// same open-loop decision for every probe.
func decisionsEqual(a, b ctlRun) bool {
	for r := range a {
		if len(a[r].open) != len(b[r].open) {
			return false
		}
		for i := range a[r].open {
			x, y := a[r].open[i], b[r].open[i]
			if x.decided != y.decided || x.accepted != y.accepted {
				return false
			}
		}
	}
	return true
}

// runRounds runs every round over its inputs and returns the rounds and
// their set-up times.
func runRounds(p ctlParams, ins []ctlInputs, openDur time.Duration, logDir string,
	tr *Tracer, wire *wireStats) (ctlRun, []float64, error) {
	var run ctlRun
	var setups []float64
	for _, in := range ins {
		rd, setup, err := runCtlRound(p, in, openDur, logDir, tr, wire)
		if err != nil {
			return nil, nil, err
		}
		run = append(run, rd)
		setups = append(setups, setup.Seconds())
	}
	return run, setups, nil
}

// runCtl runs one ctl workload: ctlRounds rounds, each on a fresh
// controller, share the run's time.
func runCtl(name string, p ctlParams, o runOpts) (*report, error) {
	round := time.Duration(o.seconds * float64(time.Second) / ctlRounds)
	openDur := time.Duration(float64(round) * p.openFrac)
	batch := int(p.batchRate*(round-openDur).Seconds()) + 1
	rng := rand.New(rand.NewSource(o.seed))
	ins := make([]ctlInputs, ctlRounds)
	for r := range ins {
		ins[r] = genCtlInputs(p, rng.Int63(), openDur, batch)
	}
	logDir := filepath.Join(o.outDir, name)

	// setup_s: the median over several set-up/tear-down cycles plus the
	// rounds' own set-ups.
	var setups []float64
	for i := 0; i < ctlSetupReps; i++ {
		env, d, err := setupCtl(logDir, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		err = env.close()
		env.releaseLog()
		if err != nil {
			return nil, err
		}
	}

	run, rsetups, err := runRounds(p, ins, openDur, logDir, nil, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, rsetups...)
	rep := &report{metrics: map[string]metric{}}
	rep.attempted, rep.failed = run.failures()
	for _, rd := range run {
		rep.violations = append(rep.violations, rd.violations...)
	}
	lat, lag := run.openLatencies()
	if len(lat) == 0 {
		return nil, errors.New("no open-loop decisions")
	}
	p50 := quantile(lat, 0.50)
	// The closed loop's pace: the median chunk over every round.
	var chunks []float64
	for _, rd := range run {
		for _, c := range rd.chunks {
			chunks = append(chunks, c.Seconds())
		}
	}
	chunkS := median(chunks)
	size := float64(chunkSize(batch))
	last := run[len(run)-1]
	if !o.trace {
		rep.put("decision_p50_ms", p50)
		rep.put("decision_p99_ms", quantile(lat, 0.99))
		rep.put("capacity_tasks_per_s", size/chunkS)
		rep.put("on_time_task_ratio", run.sum(func(rd *ctlRound) float64 { return float64(rd.onTime) })/
			run.sum(func(rd *ctlRound) float64 { return float64(len(rd.open)) }))
		rep.put("sweep_s", chunkS*float64(batch)/size)
		rep.put("setup_s", median(setups))
		var heaps []float64
		for _, rd := range run {
			heaps = append(heaps, float64(rd.heapLive)/1e6)
		}
		rep.put("heap_live_mb", median(heaps))
		return rep, nil
	}

	// Traced rounds over the same inputs: wrappers on.
	tr := NewTracer()
	wire := &wireStats{}
	trun, _, err := runRounds(p, ins, openDur, logDir, tr, wire)
	if err != nil {
		return nil, err
	}
	a, f := trun.failures()
	rep.attempted += a
	rep.failed += f
	for _, rd := range trun {
		rep.violations = append(rep.violations, rd.violations...)
	}
	if run.allAdmitted() && !decisionsEqual(run, trun) {
		rep.violations = append(rep.violations, "traced rounds decided differently from the untraced rounds")
	}
	tlat, _ := trun.openLatencies()
	nd, tnd := run.decided(), trun.decided()
	perDecision := func(f func(*ctlRound) float64) float64 { return ratio(run.sum(f), nd) }
	rep.put("netctl.broadcast_ms_mean", run.stageMean(netctl.StageBroadcast, time.Millisecond))
	rep.put("netctl.lock_wait_ms_mean", run.stageMean(netctl.StageLockWait, time.Millisecond))
	rep.put("netctl.total_ms_mean", run.stageMean(netctl.StageTotal, time.Millisecond))
	rep.put("netctl.decode_us_mean", run.stageMean(netctl.StageDecode, time.Microsecond))
	rep.put("netctl.plan_ms_mean", run.stageMean(netctl.StagePlan, time.Millisecond))
	rep.put("netctl.declog_sync_ms_mean", run.stageMean(netctl.StageDeclogSync, time.Millisecond))
	rep.put("netctl.accepted_tasks_end", float64(len(last.snap.AcceptedTasks)))
	rep.put("netctl.pending_flows_end", float64(last.snap.PendingFlows))
	rep.put("netctl.overlap_violations", run.sum(func(rd *ctlRound) float64 { return float64(rd.snap.OverlapViolations) }))
	rep.put("netctl.probes_dropped", run.sum(func(rd *ctlRound) float64 { return float64(rd.health.ProbesDropped) }))
	rep.put("declog.bytes_per_decision", perDecision(func(rd *ctlRound) float64 { return float64(rd.log.bytes) }))
	rep.put("declog.records_per_decision", perDecision(func(rd *ctlRound) float64 { return float64(rd.log.records) }))
	rep.put("wire.tx_frames_per_decision", ratio(float64(wire.txFrames.Load()), tnd))
	rep.put("wire.tx_bytes_per_decision", ratio(float64(wire.txBytes.Load()), tnd))
	rep.put("wire.write_busy_ms_per_decision", ratio(ms(time.Duration(wire.txBusy.Load())), tnd))
	rep.put("wire.rx_frames_per_decision", ratio(float64(wire.rxFrames.Load()), tnd))
	rep.put("core.replans_per_decision", perDecision(func(rd *ctlRound) float64 { return float64(rd.log.replans) }))
	rep.put("core.replan_flows_per_decision", perDecision(func(rd *ctlRound) float64 { return float64(rd.log.replanFlows) }))
	rep.put("core.reject_ratio", perDecision(func(rd *ctlRound) float64 { return float64(len(rd.log.rejected)) }))
	rep.put("core.preempt_ratio", perDecision(func(rd *ctlRound) float64 { return float64(len(rd.log.preempted)) }))
	rep.put("topology.paths_calls", ratio(trun.sum(func(rd *ctlRound) float64 { return float64(rd.routing.calls) }), tnd))
	_, pbusy, _ := tr.Totals("topology.paths")
	rep.put("topology.paths_busy_ms", ratio(ms(pbusy), tnd))
	rep.put("runtime.alloc_mb", perDecision(func(rd *ctlRound) float64 { return float64(rd.alloc) / 1e6 }))
	rep.put("runtime.gc_pause_ms", perDecision(func(rd *ctlRound) float64 { return ms(rd.gcPause) }))
	rep.put("loadgen.lag_p99_ms", quantile(lag, 0.99))
	rep.put("loadgen.decisions", nd)
	rep.put("bench.trace_overhead_ratio", ratio(quantile(tlat, 0.5), p50)-1)
	rep.trace = tr
	return rep, nil
}
