package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxStoredSpans caps the spans kept for the Chrome trace export; per-layer
// counts and busy/self times are accumulated for every span regardless.
const maxStoredSpans = 100_000

// noTask marks a span whose call carries no task ID.
const noTask = -1

// Span is one recorded call at a layer boundary. Times are offsets from
// the tracer's epoch.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for a root span
	Name   string // "<layer>.<call>", e.g. "core.arrival"
	Task   int64  // noTask when the call carries none
	Start  time.Duration
	End    time.Duration
}

// Layer returns the module name of the span: everything before the last
// dot of its name ("netctl.wire.write" -> "netctl.wire").
func (s Span) Layer() string {
	if i := strings.LastIndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// layerAcc accumulates one span name's totals.
type layerAcc struct {
	count int64
	busy  time.Duration // sum of span durations
	self  time.Duration // busy minus time covered by child spans
}

// Tracer records spans in memory and writes them out at exit. A nil
// *Tracer is a disabled tracer: every method is a no-op, so wrappers call
// it unconditionally. Spans started with Begin are flat and may come from
// any goroutine; spans started with Push nest under the innermost open
// Push span and must all come from one goroutine (the simulator's).
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []Span
	dropped int64
	acc     map[string]*layerAcc

	stack []*openSpan // Push/Pop nesting; single goroutine only
}

// openSpan is a span in progress.
type openSpan struct {
	id     uint64
	parent *openSpan
	name   string
	task   int64
	start  time.Time
	child  time.Duration // time covered by finished child spans
}

// NewTracer returns an enabled tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), acc: make(map[string]*layerAcc)}
}

// Begin opens a flat (parentless) span.
func (t *Tracer) Begin(name string, task int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &openSpan{id: id, name: name, task: task, start: time.Now()}
}

// End closes a span opened by Begin.
func (t *Tracer) End(s *openSpan) {
	if t == nil {
		return
	}
	t.finish(s, time.Now())
}

// Push opens a span nested under the innermost open Push span.
func (t *Tracer) Push(name string, task int64) {
	if t == nil {
		return
	}
	s := t.Begin(name, task)
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1]
	}
	t.stack = append(t.stack, s)
}

// Pop closes the innermost open Push span.
func (t *Tracer) Pop() {
	if t == nil {
		return
	}
	n := len(t.stack)
	s := t.stack[n-1]
	t.stack = t.stack[:n-1]
	t.finish(s, time.Now())
}

func (t *Tracer) finish(s *openSpan, end time.Time) {
	dur := end.Sub(s.start)
	var parent uint64
	if s.parent != nil {
		parent = s.parent.id
		s.parent.child += dur
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acc[s.name]
	if a == nil {
		a = &layerAcc{}
		t.acc[s.name] = a
	}
	a.count++
	a.busy += dur
	a.self += dur - s.child
	if len(t.spans) >= maxStoredSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{
		ID: s.id, Parent: parent, Name: s.name, Task: s.task,
		Start: s.start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
}

// Totals returns the count, busy and self time of one span name.
func (t *Tracer) Totals(name string) (count int64, busy, self time.Duration) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.acc[name]; a != nil {
		return a.count, a.busy, a.self
	}
	return 0, 0, 0
}

// Spans returns a copy of the stored spans and how many were dropped past
// the storage cap.
func (t *Tracer) Spans() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

// SelfTimeTable renders one row per span name: calls, busy time and self
// time (busy minus the time its nested child spans cover), sorted by self
// time, largest first.
func (t *Tracer) SelfTimeTable() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	names := make([]string, 0, len(t.acc))
	for n := range t.acc {
		names = append(names, n)
	}
	rows := make([]layerAcc, len(names))
	for i, n := range names {
		rows[i] = *t.acc[n]
	}
	t.mu.Unlock()
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := rows[idx[a]], rows[idx[b]]
		if ra.self != rb.self {
			return ra.self > rb.self
		}
		return names[idx[a]] < names[idx[b]]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %12s %12s\n", "span", "calls", "busy_ms", "self_ms")
	for _, i := range idx {
		r := rows[i]
		fmt.Fprintf(&b, "%-22s %10d %12.3f %12.3f\n", names[i], r.count, ms(r.busy), ms(r.self))
	}
	return b.String()
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes the stored spans as Chrome trace_event JSON, which
// Perfetto and chrome://tracing load. Nested (Push) spans share track 1,
// where they nest properly; flat spans are packed per name onto tracks
// where they do not overlap.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans, dropped := t.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End // parents before children
	})
	nested := make(map[uint64]bool)
	for _, s := range spans {
		if s.Parent != 0 {
			nested[s.Parent] = true
			nested[s.ID] = true
		}
	}
	lanes := make(map[string][]time.Duration) // per name: end time of each track
	trackBase := make(map[string]int)
	nextTrack := 2
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid := 1
		if !nested[s.ID] {
			ends := lanes[s.Name]
			lane := -1
			for i, e := range ends {
				if e <= s.Start {
					lane = i
					break
				}
			}
			if lane < 0 {
				lane = len(ends)
				ends = append(ends, 0)
			}
			ends[lane] = s.End
			lanes[s.Name] = ends
			base, ok := trackBase[s.Name]
			if !ok {
				base = nextTrack
				trackBase[s.Name] = base
				nextTrack += 1000
			}
			tid = base + lane
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Task != noTask {
			args["task"] = s.Task
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer(), Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	bw := bufio.NewWriter(w)
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{events, "ms", map[string]any{"dropped_spans": dropped}}
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return bw.Flush()
}

// WriteChromeFile writes the Chrome trace to path.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
