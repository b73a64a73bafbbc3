package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"clusterworx/internal/telemetry"
)

// Span names. Each names one call into a layer, timed from outside
// through the layer's public function, except the two group spans
// (round, sample), which bracket a unit of workload and whose self time
// is the benchmark's own glue: their sum is residual_us.
const (
	spRound = iota
	spSample
	spTick        // consolidate.Consolidator.Tick: gather + change detection
	spDelta       // consolidate.Consolidator.Delta or Snapshot
	spEncode      // transmit.EncoderV2.Encode
	spFrame       // transmit.Writer.WriteFrameRaw + Reader.ReadFrame
	spDecode      // transmit.DecoderV2.Decode (+ dictionary ack)
	spIngest      // core.Server.HandleFrame of an agent frame
	spRollup      // core.Rollup.Tick
	spFlush       // core.Uplink.Flush
	spBatchDecode // transmit.BatchDecoderV2.Decode (children: parent ingest)
	spParentIngest
	spControl // core.Uplink.HandleControl
	spServe   // first of the serve verbs below, one span name per verb
)

// serveVerbs are the operator read verbs the workloads issue, in span
// order after spServe.
var serveVerbs = []string{"status", "values", "compare", "history", "chart", "spark", "trend"}

var spanNames = append([]string{
	"round", "sample",
	"consolidate.tick", "consolidate.delta",
	"transmit.encode", "transmit.frame", "transmit.decode",
	"core.ingest", "core.rollup", "core.uplink_flush",
	"transmit.batch_decode", "core.parent_ingest", "core.uplink_control",
}, prefixed("serve.", serveVerbs)...)

func prefixed(p string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = p + n
	}
	return out
}

func verbSpan(verb string) int {
	for i, v := range serveVerbs {
		if v == verb {
			return spServe + i
		}
	}
	panic("cwxbench: unknown verb " + verb)
}

func isGroup(name int) bool { return name <= spSample }

// span is one recorded interval. Times are nanoseconds since the
// tracer's base; child is the summed duration of direct children, so
// self time is end-start-child.
type span struct {
	name   int
	parent int32
	sample int64
	start  int64
	end    int64
	child  int64
}

// maxKeptSpans bounds the spans kept for the trace file; aggregation
// covers every span regardless.
const maxKeptSpans = 200_000

// tracer records spans in memory around every timed call of a traced
// phase. All workload code takes a *tracer and calls begin/end
// unconditionally; a nil tracer (the untraced phase) records nothing.
type tracer struct {
	base  time.Time
	open  []span // the current round's spans, in begin order
	stack []int32
	kept  []span

	selfNs  []int64 // per span name: summed self time
	count   []int64 // per span name: spans recorded
	rounds  int64
	groupNs int64 // self time of group spans: the residual

	// sums holds per-layer quantities read from the program's own
	// telemetry (stage splits, counters), indexed by the sum* keys.
	sums [numSums]float64
}

// Per-layer quantities summed over a traced phase.
const (
	sumGatherNs     = iota // Consolidator.TickTelemetry gather split
	sumConsNs              // its change-detection split, plus Delta/Snapshot
	sumConsOut             // values a Delta/Snapshot returned
	sumAgentSamples        // consolidator ticks
	sumIngestNs            // HandleFrame's ingest stage (span telemetry)
	sumEventsNs            // its events-dwell stage
	sumIngestValues
	sumTransmitBytes
	sumRollupEmits // rollup ticks that ingested a changed aggregate
	sumUplinkNodes
	sumUplinkBytes
	sumHistoryBytes // history footprint at the end of the phase
	// Program counters, read at the phase's bounds (see counters).
	sumHistoryAppends
	sumServeHits
	sumServeMisses
	sumSummaryHits
	sumDecodes
	sumGathered
	sumChanged
	numSums
)

func newTracer() *tracer {
	return &tracer{
		base:   time.Now(),
		selfNs: make([]int64, len(spanNames)),
		count:  make([]int64, len(spanNames)),
	}
}

func (t *tracer) begin(name int, sample int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.open))
	t.open = append(t.open, span{name: name, parent: parent, sample: sample, start: int64(time.Since(t.base))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	if t == nil {
		return 0
	}
	sp := &t.open[id]
	sp.end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
	if sp.parent >= 0 {
		t.open[sp.parent].child += sp.end - sp.start
	}
	d := sp.end - sp.start
	if len(t.stack) == 0 {
		t.flush()
	}
	return d
}

// add accumulates a per-layer quantity; no-op when untraced.
func (t *tracer) add(key int, v float64) {
	if t != nil {
		t.sums[key] += v
	}
}

// flush folds a finished top-level span tree into the aggregates.
func (t *tracer) flush() {
	for i := range t.open {
		sp := &t.open[i]
		self := sp.end - sp.start - sp.child
		t.selfNs[sp.name] += self
		t.count[sp.name]++
		if isGroup(sp.name) {
			t.groupNs += self
		}
		if sp.name == spRound {
			t.rounds++
		}
	}
	if room := maxKeptSpans - len(t.kept); room > 0 {
		base := int32(len(t.kept))
		for i := 0; i < len(t.open) && i < room; i++ {
			sp := t.open[i]
			if sp.parent >= 0 {
				sp.parent += base
			}
			t.kept = append(t.kept, sp)
		}
	}
	t.open = t.open[:0]
}

// meanUs is the mean self time of one span name, in microseconds.
func (t *tracer) meanUs(name int) float64 {
	return ratio(float64(t.selfNs[name])/1e3, float64(t.count[name]))
}

// residualUs is the benchmark's own glue time per round, covered by no
// layer span.
func (t *tracer) residualUs() float64 {
	return ratio(float64(t.groupNs)/1e3, float64(t.rounds))
}

// write dumps the kept spans as JSON lines: name, start, end, parent
// index (-1 for a root) and sample id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, sp := range t.kept {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"sample\":%d}\n",
			i, spanNames[sp.name], sp.start, sp.end, sp.parent, sp.sample)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters are the program's own telemetry counters the traced run
// reads at its bounds, by the sum they feed.
var counters = map[int]string{
	sumHistoryAppends: "cwx_history_appends_total",
	sumServeHits:      "cwx_serve_hits_total",
	sumServeMisses:    "cwx_serve_misses_total",
	sumSummaryHits:    "cwx_history_summary_hits_total",
	sumDecodes:        "cwx_history_block_decodes_total",
	sumGathered:       "cwx_consolidate_values_collected_total",
	sumChanged:        "cwx_consolidate_values_changed_total",
}

func readCounters() map[int]int64 {
	out := make(map[int]int64, len(counters))
	for k, name := range counters {
		out[k] = telemetry.Default().Counter(name).Load()
	}
	return out
}
