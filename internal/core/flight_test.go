package core

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/events"
	"clusterworx/internal/flight"
	"clusterworx/internal/telemetry"
)

// This file is the differential test for the flight recorder: the
// journal's records must agree with what the counters claim happened,
// and a sampled frame's trace id must reconstruct the full
// gather→consolidate→transmit→ingest→events→notify span tree —
// including the resync detour when the frame rode a healing snapshot.

// flightRecsSince reads the journal past base. The default journal is
// process-wide and earlier tests in this package have written to it, so
// every assertion here filters by the cursor captured at test start.
func flightRecsSince(base uint64) []flight.Record {
	return flight.Default().Since(base, 0)
}

func countKind(recs []flight.Record, k flight.Kind) int64 {
	var n int64
	for _, r := range recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// traceStages returns the set of pipeline stages journaled under one
// trace id.
func traceStages(recs []flight.Record, trace uint64) map[uint8]bool {
	stages := make(map[uint8]bool)
	for _, r := range recs {
		if r.Trace == trace && r.Kind == flight.KindStage {
			stages[r.Stage] = true
		}
	}
	return stages
}

// TestFlightDifferential drives a 3-node simulated cluster through a
// seeded blackhole and requires journal record counts to equal the
// ingest counters (gaps, resync requests, snapshots applied, resync
// snapshots sent, retransmits), then picks sampled traces out of the
// journal and checks their span trees stage by stage.
func TestFlightDifferential(t *testing.T) {
	base := flight.Default().Cursor()
	prevRate := flight.SetRate(1) // sample every tick: every frame is traced
	defer flight.SetRate(prevRate)
	if !flight.Default().Enabled() {
		t.Fatal("flight recorder must be enabled by default")
	}

	sim := faultSim(t, 3, 20*time.Second, 7)
	// An immediately-firing notifying rule so sampled frames reach the
	// notify hop (hw.temp.cpu is always present on simulated nodes).
	if err := sim.Server.Engine().AddRule(events.Rule{
		Name: "flight-probe", Metric: "hw.temp.cpu", Op: events.GT,
		Threshold: -1000, Sustain: 1, Action: events.ActNone, Notify: true,
	}); err != nil {
		t.Fatal(err)
	}

	sim.Advance(10 * time.Second) // lossless: traced frames reach notify
	sim.Net.SetLoss(1)            // blackhole: gaps on heal
	sim.Advance(5 * time.Second)
	sim.Net.SetLoss(0) // heal: gap detection, resync request, snapshot
	sim.Advance(30 * time.Second)
	sim.Stop()
	sim.Advance(5 * time.Second) // drain in-flight frames

	recs := flightRecsSince(base)
	if len(recs) == 0 {
		t.Fatal("journal empty after a traced run")
	}

	// Differential, server side: every counter bump on the ingest path
	// has exactly one journal record.
	var gaps, regressions, resyncReqs, snapshots int64
	for _, st := range sim.Server.SyncStates() {
		gaps += st.Gaps
		regressions += st.Regressions
		resyncReqs += st.ResyncReqs
		snapshots += st.Snapshots
	}
	if gaps == 0 {
		t.Fatal("blackhole produced no sequence gaps: detour not exercised")
	}
	if got := countKind(recs, flight.KindGap); got != gaps {
		t.Errorf("gap records = %d, counters claim %d", got, gaps)
	}
	if got := countKind(recs, flight.KindRegression); got != regressions {
		t.Errorf("regression records = %d, counters claim %d", got, regressions)
	}
	if got := countKind(recs, flight.KindResyncSent); got != resyncReqs {
		t.Errorf("resync-sent records = %d, counters claim %d", got, resyncReqs)
	}
	if got := countKind(recs, flight.KindSnapApplied); got != snapshots {
		t.Errorf("snap-applied records = %d, counters claim %d", got, snapshots)
	}

	// Differential, agent side.
	var resyncsSent, retransmits int
	for _, a := range sim.Agents {
		resyncsSent += a.ResyncsSent()
		retransmits += a.Retransmits()
	}
	if got := countKind(recs, flight.KindResyncSnap); got != int64(resyncsSent) {
		t.Errorf("resync-snap records = %d, agents claim %d", got, resyncsSent)
	}
	if got := countKind(recs, flight.KindRetransmit); got != int64(retransmits) {
		t.Errorf("retransmit records = %d, agents claim %d", got, retransmits)
	}

	// A trace that reached the notify hop must carry the complete
	// six-stage pipeline tree.
	var notifyTrace uint64
	for _, r := range recs {
		if r.Kind == flight.KindStage && r.Stage == uint8(telemetry.StageNotify) && r.Trace != 0 {
			notifyTrace = r.Trace
			break
		}
	}
	if notifyTrace == 0 {
		t.Fatal("no traced notify hop journaled")
	}
	stages := traceStages(recs, notifyTrace)
	for st := telemetry.Stage(0); int(st) < telemetry.NumStages; st++ {
		if !stages[uint8(st)] {
			t.Errorf("trace %s span tree missing stage %s", flight.FormatTrace(notifyTrace), st)
		}
	}

	// The resync detour: a traced healing snapshot must show both ends —
	// the agent's resync-snap send and the server applying that same
	// snapshot under the same trace id.
	var detourTrace uint64
	for _, r := range recs {
		if r.Kind == flight.KindResyncSnap && r.Trace != 0 {
			detourTrace = r.Trace
			break
		}
	}
	if detourTrace == 0 {
		t.Fatal("no traced resync snapshot journaled")
	}
	var applied bool
	for _, r := range recs {
		if r.Trace == detourTrace && r.Kind == flight.KindSnapApplied {
			applied = true
		}
	}
	if !applied {
		t.Errorf("trace %s: resync snapshot sent but no snap-applied record under the same trace",
			flight.FormatTrace(detourTrace))
	}

	// An event firing journaled under a sampled frame's trace.
	if countKind(recs, flight.KindEventFired) == 0 {
		t.Error("rule fired but no event-fired journal record")
	}

	// ctl surface: "flight <id>" renders the span tree in pipeline order.
	out := sim.Server.HandleCtl("flight " + flight.FormatTrace(notifyTrace))
	if !strings.HasPrefix(out, "OK flight "+flight.FormatTrace(notifyTrace)) {
		t.Fatalf("flight verb: %q", out)
	}
	gatherAt := strings.Index(out, "stage:gather")
	notifyAt := strings.Index(out, "stage:notify")
	if gatherAt < 0 || notifyAt < 0 || gatherAt > notifyAt {
		t.Errorf("flight output not in pipeline order (gather@%d notify@%d):\n%s", gatherAt, notifyAt, out)
	}
	// Node-name form resolves to the node's most recent trace.
	if out := sim.Server.HandleCtl("flight node001"); !strings.HasPrefix(out, "OK flight ") {
		t.Errorf("flight by node: %q", out)
	}
	if out := sim.Server.HandleCtl("flight"); !strings.HasPrefix(out, "ERR usage") {
		t.Errorf("bare flight: %q", out)
	}
	if out := sim.Server.HandleCtl("flight 0000000000000000"); !strings.HasPrefix(out, "ERR") {
		t.Errorf("zero trace id: %q", out)
	}
}

// TestCtlJournalVerb exercises the journal verb's text, cursor, and
// JSON forms against a small live sim.
func TestCtlJournalVerb(t *testing.T) {
	base := flight.Default().Cursor()
	prevRate := flight.SetRate(1)
	defer flight.SetRate(prevRate)
	sim := faultSim(t, 2, -1, 11)
	sim.Advance(5 * time.Second)

	out := sim.Server.HandleCtl("journal")
	if !strings.HasPrefix(out, "OK journal cursor=") {
		t.Fatalf("journal: %q", out)
	}
	// Lines lead with the zero-padded sequence (the watch diff key).
	lines := strings.Split(out, "\n")
	if len(lines) < 2 || len(lines[1]) < 12 {
		t.Fatalf("no journal lines:\n%s", out)
	}
	if _, err := strconv.ParseUint(lines[1][:12], 10, 64); err != nil {
		t.Errorf("line key not a sequence number: %q", lines[1])
	}

	out = sim.Server.HandleCtl("journal since " + strconv.FormatUint(base, 10))
	if !strings.HasPrefix(out, "OK journal cursor=") {
		t.Fatalf("journal since: %q", out)
	}

	out = sim.Server.HandleCtl("journal -json")
	if !strings.HasPrefix(out, "OK\n") {
		t.Fatalf("journal -json: %q", out)
	}
	var resp struct {
		Cursor  uint64 `json:"cursor"`
		Records []struct {
			Seq   uint64 `json:"seq"`
			Kind  string `json:"kind"`
			Trace string `json:"trace"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(out[3:]), &resp); err != nil {
		t.Fatalf("journal -json unparseable: %v\n%s", err, out)
	}
	if resp.Cursor == 0 || len(resp.Records) == 0 {
		t.Fatalf("journal -json empty: cursor=%d records=%d", resp.Cursor, len(resp.Records))
	}

	if out := sim.Server.HandleCtl("journal since x"); !strings.HasPrefix(out, "ERR usage") {
		t.Errorf("bad since arg: %q", out)
	}

	// trace -json: spans plus (when present) the ingest exemplar.
	out = sim.Server.HandleCtl("trace -json")
	if !strings.HasPrefix(out, "OK\n") {
		t.Fatalf("trace -json: %q", out)
	}
	var tresp struct {
		Spans []struct {
			Node   string `json:"node"`
			Stages []struct {
				Stage string `json:"stage"`
				Trace string `json:"trace"`
			} `json:"stages"`
		} `json:"spans"`
		Exemplar *struct {
			ValueNs int64  `json:"value_ns"`
			Trace   string `json:"trace"`
		} `json:"exemplar"`
	}
	if err := json.Unmarshal([]byte(out[3:]), &tresp); err != nil {
		t.Fatalf("trace -json unparseable: %v\n%s", err, out)
	}
	if len(tresp.Spans) == 0 {
		t.Fatal("trace -json returned no spans")
	}
	if tresp.Exemplar != nil {
		if _, ok := flight.ParseTrace(tresp.Exemplar.Trace); !ok {
			t.Errorf("exemplar trace not a valid id: %q", tresp.Exemplar.Trace)
		}
		// The human rendition links the same exemplar.
		human := sim.Server.HandleCtl("trace")
		if !strings.Contains(human, "drill down: flight "+tresp.Exemplar.Trace) {
			t.Errorf("trace text missing exemplar footer:\n%s", human)
		}
	}
}
