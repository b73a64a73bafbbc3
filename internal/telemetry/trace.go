package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one hop of the monitoring pipeline, in pipeline
// order: the paper's three agent-side stages (§5.3 gathering →
// consolidation → transmission) followed by the server-side stages PR 1
// made concurrent (ingest → event evaluation → notification).
type Stage uint8

const (
	StageGather Stage = iota
	StageConsolidate
	StageTransmit
	StageIngest
	StageEvents
	StageNotify
)

// NumStages is the number of pipeline stages a span records.
const NumStages = 6

// String returns the short lower-case stage name.
func (s Stage) String() string {
	switch s {
	case StageGather:
		return "gather"
	case StageConsolidate:
		return "consolidate"
	case StageTransmit:
		return "transmit"
	case StageIngest:
		return "ingest"
	case StageEvents:
		return "events"
	case StageNotify:
		return "notify"
	}
	return "unknown"
}

// stageCell holds the most recent measurement for one stage: wall-clock
// duration in nanoseconds and a stage-appropriate size (values gathered,
// delta length, batch size, rules evaluated, incidents).
type stageCell struct {
	ns    atomic.Int64
	size  atomic.Int64
	trace atomic.Uint64 // flight trace id of the last *sampled* measurement
}

// Span is one node's most recent per-stage pipeline measurements. It is
// last-write-wins per stage rather than a per-batch trace: with agents
// ticking every second, "the latest breakdown" is what an operator asks
// for, and it keeps the record path to two atomic stores per stage — no
// allocation, no lock. Different stages of one span are written by
// different goroutines (agent tick, server ingest, notifier), so a
// snapshot may pair a fresh gather with a slightly older notify; the
// sequence counter says how live the span is.
type Span struct {
	node   string
	seq    atomic.Int64
	stages [NumStages]stageCell
}

// Record stores one stage measurement. Safe on a nil span, so callers
// may hold an optional slot.
//
//cwx:hotpath
func (sp *Span) Record(stage Stage, d time.Duration, size int64) {
	sp.RecordTraced(stage, d, size, 0)
}

// RecordTraced is Record plus the causal trace id of the measurement
// when the frame was sampled (internal/flight). Trace 0 (unsampled)
// leaves the cell's last sampled trace in place, so "the most recent
// traced measurement" survives the 63-in-64 unsampled ticks between
// samples and trace output can always offer a drill-down target.
//
//cwx:hotpath
func (sp *Span) RecordTraced(stage Stage, d time.Duration, size int64, trace uint64) {
	if sp == nil || !enabled.Load() {
		return
	}
	c := &sp.stages[stage]
	c.ns.Store(int64(d))
	c.size.Store(size)
	if trace != 0 {
		c.trace.Store(trace)
	}
	sp.seq.Add(1)
}

// StageTrace returns the trace id of the last sampled measurement for
// one stage (0 if the stage was never sampled). Used by the notifier to
// tie its records to the ingest that caused the event, without plumbing
// the id through the engine's callback interfaces.
func (sp *Span) StageTrace(stage Stage) uint64 {
	if sp == nil {
		return 0
	}
	return sp.stages[stage].trace.Load()
}

// StageSample is a read-only copy of one stage cell. Trace is the
// flight trace id of the last sampled measurement, which may be older
// than Dur/Size (those update on every tick, the trace only on sampled
// ones).
type StageSample struct {
	Dur   time.Duration
	Size  int64
	Trace uint64
}

// SpanSnapshot is a read-only copy of a span.
type SpanSnapshot struct {
	Node   string
	Seq    int64
	Stages [NumStages]StageSample
}

// Snapshot copies the span with atomic loads; writers continue.
func (sp *Span) Snapshot() SpanSnapshot {
	s := SpanSnapshot{Node: sp.node, Seq: sp.seq.Load()}
	for i := range sp.stages {
		s.Stages[i] = StageSample{
			Dur:   time.Duration(sp.stages[i].ns.Load()),
			Size:  sp.stages[i].size.Load(),
			Trace: sp.stages[i].trace.Load(),
		}
	}
	return s
}

// Tracer holds one span per node. Slot resolution takes the tracer lock
// and is meant for setup paths (agent construction, node registration);
// hot paths cache the returned *Span and record through it with atomics
// only.
type Tracer struct {
	mu    sync.Mutex //cwx:lockrank tracer 56
	spans map[string]*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{spans: make(map[string]*Span)}
}

// Spans is the process-wide tracer. When agents and server share a
// process (the simulators), both halves of a node's pipeline record
// into the same span.
var Spans = NewTracer()

// Slot returns the node's span, creating it if needed.
func (t *Tracer) Slot(node string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.spans[node]
	if !ok {
		sp = &Span{node: node}
		t.spans[node] = sp
	}
	return sp
}

// Record is the convenience path for cold callers that do not hold a
// slot (the notifier). It resolves the slot under the tracer lock, so
// hot paths should use Slot once and Record on the span instead.
func (t *Tracer) Record(node string, stage Stage, d time.Duration, size int64) {
	if !enabled.Load() {
		return
	}
	t.Slot(node).Record(stage, d, size)
}

// RecordTraced is Record carrying a flight trace id.
func (t *Tracer) RecordTraced(node string, stage Stage, d time.Duration, size int64, trace uint64) {
	if !enabled.Load() {
		return
	}
	t.Slot(node).RecordTraced(stage, d, size, trace)
}

// StageTrace returns the node's last sampled trace id for a stage, or 0
// if the node has no span or the stage was never sampled. Cold path
// (takes the tracer lock) — it does not create a span.
func (t *Tracer) StageTrace(node string, stage Stage) uint64 {
	t.mu.Lock()
	sp := t.spans[node]
	t.mu.Unlock()
	return sp.StageTrace(stage)
}

// Lookup returns the snapshot for one node, if it has a span.
func (t *Tracer) Lookup(node string) (SpanSnapshot, bool) {
	t.mu.Lock()
	sp, ok := t.spans[node]
	t.mu.Unlock()
	if !ok {
		return SpanSnapshot{}, false
	}
	return sp.Snapshot(), true
}

// Snapshot returns every span, sorted by node name.
func (t *Tracer) Snapshot() []SpanSnapshot {
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.spans))
	for _, sp := range t.spans {
		spans = append(spans, sp)
	}
	t.mu.Unlock()
	out := make([]SpanSnapshot, len(spans))
	for i, sp := range spans {
		out[i] = sp.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
