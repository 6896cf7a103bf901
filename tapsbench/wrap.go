package main

// Wrappers that measure the program from outside, at seams it already
// accepts: a net.Listener for Controller.ServeListener, a topology.Routing
// for netctl.NewController and sim.New, and a sim.Scheduler around
// core.Scheduler. Each forwards every call unchanged.

import (
	"bytes"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"taps/internal/core"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// wireStats counts the traffic on the controller's side of its agent
// sockets.
type wireStats struct {
	txFrames  atomic.Int64 // Write calls: json.Encoder issues one per frame
	txBytes   atomic.Int64
	txBusy    atomic.Int64 // ns spent inside Write
	txNewline atomic.Int64 // '\n' bytes written: frames by content
	rxFrames  atomic.Int64 // '\n' bytes read: one per inbound frame
}

// wireListener wraps the controller's listener so every accepted
// connection is a wireConn.
type wireListener struct {
	net.Listener
	stats *wireStats
	tr    *Tracer
}

func (l *wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, stats: l.stats, tr: l.tr}, nil
}

// wireConn counts frames and bytes and records one span per Write.
type wireConn struct {
	net.Conn
	stats *wireStats
	tr    *Tracer
}

func (c *wireConn) Write(p []byte) (int, error) {
	sp := c.tr.Begin("netctl.wire.write", frameTask(c.tr, p))
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.stats.txBusy.Add(int64(time.Since(t0)))
	c.tr.End(sp)
	c.stats.txFrames.Add(1)
	c.stats.txBytes.Add(int64(n))
	c.stats.txNewline.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.stats.rxFrames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// frameTask extracts the task ID a grant or reject frame carries, for the
// span; noTask when tracing is off or the frame names none.
func frameTask(tr *Tracer, p []byte) int64 {
	if tr == nil {
		return noTask
	}
	i := bytes.Index(p, []byte(`"task":`))
	if i < 0 {
		return noTask
	}
	rest := p[i+len(`"task":`):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return noTask
	}
	return v
}

// tracedRouting wraps a Routing and records one span per Paths call.
// nested selects Push spans (single-goroutine simulator, where the calls
// nest under core spans) over flat Begin spans (controller).
type tracedRouting struct {
	inner  topology.Routing
	tr     *Tracer
	nested bool
	calls  int64
}

func (r *tracedRouting) Paths(src, dst topology.NodeID, max int, key uint64) []topology.Path {
	r.calls++
	if r.nested {
		r.tr.Push("topology.paths", noTask)
		defer r.tr.Pop()
	} else {
		sp := r.tr.Begin("topology.paths", noTask)
		defer r.tr.End(sp)
	}
	return r.inner.Paths(src, dst, max, key)
}

// schedWrap wraps the TAPS scheduler. It always times task arrivals (the
// simulator's per-task decision latency); with a tracer it also records a
// span per call and counts the reject-rule outcomes.
type schedWrap struct {
	inner *core.Scheduler
	tr    *Tracer

	arrivals    []time.Duration // wall time of each OnTaskArrival
	replanFlows int64           // active flows at each arrival (the pass size)
	rejected    int64
	preempted   int64
}

func newSchedWrap(tr *Tracer) *schedWrap {
	return &schedWrap{inner: core.New(core.DefaultConfig()), tr: tr}
}

func (s *schedWrap) Name() string { return s.inner.Name() }

func (s *schedWrap) OnTaskArrival(st *sim.State, task *sim.Task) {
	s.replanFlows += int64(st.NumActive())
	s.tr.Push("core.arrival", int64(task.ID))
	t0 := time.Now()
	s.inner.OnTaskArrival(st, task)
	s.arrivals = append(s.arrivals, time.Since(t0))
	s.tr.Pop()
}

func (s *schedWrap) OnFlowFinished(st *sim.State, f *sim.Flow) {
	s.tr.Push("core.finish", int64(f.Task))
	s.inner.OnFlowFinished(st, f)
	s.tr.Pop()
}

func (s *schedWrap) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	s.tr.Push("core.finish", int64(f.Task))
	s.inner.OnDeadlineMissed(st, f)
	s.tr.Pop()
}

func (s *schedWrap) OnTaskRejected(st *sim.State, task *sim.Task) {
	s.rejected++
	s.inner.OnTaskRejected(st, task)
}

func (s *schedWrap) OnTaskPreempted(st *sim.State, task *sim.Task) {
	s.preempted++
	s.inner.OnTaskPreempted(st, task)
}

func (s *schedWrap) OnLinkDown(st *sim.State, link topology.LinkID) {
	s.inner.OnLinkDown(st, link)
}

func (s *schedWrap) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	if s.tr == nil {
		return s.inner.Rates(st)
	}
	s.tr.Push("core.rates", noTask)
	rm, h := s.inner.Rates(st)
	s.tr.Pop()
	return rm, h
}
