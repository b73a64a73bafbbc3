package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/simnet"
	"clusterworx/internal/transmit"
)

// This file is the fault-injection harness for the loss-tolerant delta
// protocol: it drives the full agent→simnet→server stack through seeded
// loss, blackhole, latency, and partition schedules, then requires the
// server's view of every node to match the agent's consolidator state
// byte for byte. A control arm over the legacy unsequenced protocol,
// rebuilt here test-side, demonstrates the silent divergence the
// sequenced protocol exists to fix.

// syncDiff compares the server's stored values for a node against the
// agent's own snapshot, returning one description per mismatch. The
// sims here disable the server-side echo sweep, so every stored value —
// including the agent's own net.echo.ok probe — must come from, and
// match, the agent.
func syncDiff(srv *Server, name string, agentVals []consolidate.Value) []string {
	var diffs []string
	server := make(map[string]consolidate.Value)
	for _, v := range srv.NodeValues(name) {
		server[v.Name] = v
	}
	for _, want := range agentVals {
		got, ok := server[want.Name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %s missing on server", name, want.Name))
			continue
		}
		if got.Render() != want.Render() {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %q on server, %q on agent",
				name, want.Name, got.Render(), want.Render()))
		}
		delete(server, want.Name)
	}
	for stale := range server {
		diffs = append(diffs, fmt.Sprintf("%s: stale metric %s on server", name, stale))
	}
	return diffs
}

// faultSim builds a simulated cluster and powers it on; every agent
// speaks the sequenced v2 session over the simulated monitoring plane.
func faultSim(t *testing.T, nodes int, antiEntropy time.Duration, seed int64) *Sim {
	t.Helper()
	sim, err := NewSim(SimConfig{
		Nodes:       nodes,
		Cluster:     "faultlab",
		AntiEntropy: antiEntropy,
		EchoSweep:   -1, // keep server-side probe writes out of the comparison
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Stop)
	sim.PowerOnAll()
	return sim
}

// settleAndCompare stops the agents, drains in-flight packets, and
// returns the concatenated per-node diffs between server and agents.
func settleAndCompare(sim *Sim) []string {
	sim.Stop()
	// Agents no longer tick, so their consolidators are frozen; anything
	// already on the wire still needs to land.
	sim.Advance(5 * time.Second)
	var diffs []string
	for i, agent := range sim.Agents {
		name := sim.Nodes[i].Name()
		diffs = append(diffs, syncDiff(sim.Server, name, agent.Consolidator().Snapshot())...)
	}
	return diffs
}

// TestLossToleranceConverges is the acceptance test: 12 nodes through a
// 15% loss regime with a blackhole phase, a latency shift, and a
// monitoring-plane partition, and after the network heals the server
// converges to a byte-identical view of every agent.
func TestLossToleranceConverges(t *testing.T) {
	sim := faultSim(t, 12, 20*time.Second, 42)
	sim.Advance(30 * time.Second) // boot + first lossless reports

	// Phase 1: 15% random loss across the fabric.
	sim.Net.SetLoss(0.15)
	sim.Advance(60 * time.Second)
	// Phase 2: ten-second total blackhole.
	sim.Net.SetLoss(1)
	sim.Advance(10 * time.Second)
	// Phase 3: back to lossy, with degraded latency, plus one node's
	// monitoring link physically down for 20 s.
	sim.Net.SetLoss(0.15)
	sim.Net.SetLatency(2 * time.Millisecond)
	mon := sim.Net.Endpoint("node003.mon")
	mon.SetUp(false)
	sim.Advance(20 * time.Second)
	mon.SetUp(true)
	sim.Advance(20 * time.Second)
	// Heal and settle for longer than anti-entropy + max retry backoff.
	sim.Net.SetLoss(0)
	sim.Advance(90 * time.Second)

	states := sim.Server.SyncStates()
	var gaps, snapshots, resyncReqs int64
	for _, st := range states {
		gaps += st.Gaps
		snapshots += st.Snapshots
		resyncReqs += st.ResyncReqs
		if !st.Synced {
			t.Errorf("node %s still diverged after heal: %+v", st.Node, st)
		}
	}
	if gaps == 0 {
		t.Fatal("fault schedule produced no sequence gaps: the protocol was not exercised")
	}
	if snapshots == 0 || resyncReqs == 0 {
		t.Fatalf("no healing traffic observed: snapshots=%d resyncReqs=%d", snapshots, resyncReqs)
	}
	var sendErrs, resyncsSent int
	for _, a := range sim.Agents {
		sendErrs += a.SendErrors()
		resyncsSent += a.ResyncsSent()
		if a.PendingRetransmit() != 0 {
			t.Errorf("agent still has %d values banked after heal", a.PendingRetransmit())
		}
	}
	if sendErrs == 0 {
		t.Error("the partitioned node should have seen link-down send failures")
	}
	if resyncsSent == 0 {
		t.Error("no agent shipped a resync snapshot")
	}
	// The operator's view of all of the above: the ctl "sync" verb.
	out := sim.Server.HandleCtl("sync")
	if !strings.Contains(out, "synced") || strings.Contains(out, "DIVERGED") {
		t.Errorf("ctl sync should show every node synced:\n%s", out)
	}
	if diffs := settleAndCompare(sim); len(diffs) > 0 {
		t.Fatalf("server diverged from agents after heal (%d diffs):\n%s",
			len(diffs), joinDiffs(diffs))
	}
}

// TestLossFromFirstFrame runs one loss schedule against two protocols:
// 16 nodes lossy at 20% from the very first frame, then lossless, with
// anti-entropy off so only the protocol itself can heal. Loss from the
// first transmission means some node's initial full change set —
// statics included — is dropped, and change suppression guarantees
// those values are never sent again unless the protocol notices.
//
//   - sequenced: the production v2 session. Its first frame carries the
//     dictionary, so losing it exercises the unacked-dictionary resend
//     and resync recovery from frame one; the server must converge byte
//     for byte.
//   - legacy: the unsequenced protocol, rebuilt test-side by
//     legacyAgents. The server must be demonstrably, permanently wrong —
//     the silent divergence the sequenced protocol exists to fix.
func TestLossFromFirstFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		legacy bool
	}{
		{name: "sequenced"},
		{name: "legacy", legacy: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := faultSim(t, 16, -1, 7)
			if tc.legacy {
				legacyAgents(t, sim)
			}
			sim.Net.SetLoss(0.2) // lossy from the very first frame
			sim.Advance(60 * time.Second)
			sim.Net.SetLoss(0)
			sim.Advance(60 * time.Second) // plenty of lossless heartbeats to recover

			if !tc.legacy {
				var gaps int64
				for _, st := range sim.Server.SyncStates() {
					gaps += st.Gaps
					if !st.Synced {
						t.Errorf("node %s still diverged after heal: %+v", st.Node, st)
					}
				}
				if gaps == 0 {
					t.Fatal("loss produced no sequence gaps: the protocol was not exercised")
				}
			}
			diffs := settleAndCompare(sim)
			switch {
			case !tc.legacy && len(diffs) > 0:
				t.Fatalf("server diverged from agents after heal (%d diffs):\n%s", len(diffs), joinDiffs(diffs))
			case tc.legacy && len(diffs) == 0:
				t.Fatal("legacy protocol converged under 20% loss; the control arm should diverge " +
					"(if a protocol change made this reliable, the sequenced path is redundant)")
			case tc.legacy:
				t.Logf("legacy protocol diverged as expected: %d mismatches, e.g. %s", len(diffs), diffs[0])
			}
		})
	}
}

// legacyAgents swaps sim's agents for the legacy unsequenced protocol:
// each change set ships as Seq-0 v1 text over the node's monitoring
// endpoint to a receiver that parses and ingests it — no sequence
// numbers, no back-channel, no anti-entropy — so a lost frame is never
// detected. Call before the clock first advances.
func legacyAgents(t *testing.T, sim *Sim) {
	t.Helper()
	sim.Stop()
	const rxAddr simnet.Addr = "legacy.mon"
	rx := sim.Net.Attach(rxAddr, simnet.FastEthernet)
	rx.OnReceive(func(p simnet.Packet) {
		f, err := transmit.ParseFrame(p.Payload.([]byte))
		if err != nil {
			t.Errorf("legacy receiver: %v", err)
			return
		}
		sim.Server.HandleFrame(f) //nolint:errcheck // Seq-0 frames never request a resync
	})
	for i, n := range sim.Nodes {
		ep := sim.Net.Endpoint(simnet.Addr(n.Name() + ".mon"))
		a, err := NewAgent(sim.Clk, AgentConfig{
			Node:        n,
			AntiEntropy: -1,
			SendFrame: func(f transmit.Frame) error {
				b := transmit.MarshalFrame(nil, transmit.Frame{Node: f.Node, Values: f.Values})
				ep.Send(rxAddr, b, len(b)+monOverheadBytes)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Agents[i] = a
	}
}

// TestPartitionHealRetransmits pins down the agent-side banking path: a
// down local link is a visible send error, so the agent must bank the
// change set, back off, and deliver the union in-order after the link
// heals — no sequence gap, no snapshot needed.
func TestPartitionHealRetransmits(t *testing.T) {
	// Anti-entropy off: convergence here must come from retransmission
	// alone, not be rescued by a periodic snapshot.
	sim := faultSim(t, 3, -1, 11)
	sim.Advance(30 * time.Second)

	mon := sim.Net.Endpoint("node001.mon")
	mon.SetUp(false)
	sim.Node("node001").SetLoad(4) // state changes while unreachable
	sim.Advance(25 * time.Second)
	mon.SetUp(true)
	sim.Advance(60 * time.Second) // past max retry backoff

	a := sim.Agents[1]
	if a.SendErrors() == 0 {
		t.Fatal("partitioned agent saw no send errors")
	}
	if a.Retransmits() == 0 {
		t.Fatal("healed agent never shipped its banked change sets")
	}
	for _, st := range sim.Server.SyncStates() {
		if st.Gaps != 0 {
			t.Errorf("node %s: %d gaps — link-down failures must not burn sequence numbers", st.Node, st.Gaps)
		}
		if !st.Synced {
			t.Errorf("node %s diverged", st.Node)
		}
	}
	if diffs := settleAndCompare(sim); len(diffs) > 0 {
		t.Fatalf("server diverged after partition heal:\n%s", joinDiffs(diffs))
	}
}

// TestHandleFrameConcurrent hammers the sequenced ingest path from many
// goroutines — gaps, regressions, and snapshots interleaved with the
// read-side APIs — to hold the PR 1 guarantee that protocol state rides
// the per-node locks, not a new global one. Run with -race.
func TestHandleFrameConcurrent(t *testing.T) {
	srv := NewServer(ServerConfig{Cluster: "race"})
	const workers = 8
	const frames = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fmt.Sprintf("node%03d", w)
			vals := []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, float64(w))}
			seq := uint64(0)
			for i := 0; i < frames; i++ {
				seq++
				switch i % 10 {
				case 3: // lose a frame: next delta gaps
					seq++
					srv.HandleFrame(transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameDelta, Values: vals}) //nolint:errcheck
				case 7: // heal with a snapshot
					srv.HandleFrame(transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameSnapshot, Values: vals}) //nolint:errcheck
				default:
					srv.HandleFrame(transmit.Frame{Node: node, Seq: seq, Kind: transmit.FrameDelta, Values: vals}) //nolint:errcheck
				}
			}
			// Agent restart: sequence regression.
			srv.HandleFrame(transmit.Frame{Node: node, Seq: 1, Kind: transmit.FrameDelta, Values: vals}) //nolint:errcheck
		}()
	}
	// Read-side churn while ingest runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			srv.SyncStates()
			srv.Status()
		}
	}()
	wg.Wait()
	<-done
	states := srv.SyncStates()
	if len(states) != workers {
		t.Fatalf("nodes = %d, want %d", len(states), workers)
	}
	for _, st := range states {
		if st.Gaps == 0 || st.Snapshots == 0 || st.Regressions == 0 {
			t.Fatalf("node %s missed protocol transitions: %+v", st.Node, st)
		}
		if st.Synced {
			t.Fatalf("node %s synced after a trailing regression: %+v", st.Node, st)
		}
	}
}

func joinDiffs(diffs []string) string {
	if len(diffs) > 12 {
		diffs = append(diffs[:12:12], fmt.Sprintf("... and %d more", len(diffs)-12))
	}
	out := ""
	for _, d := range diffs {
		out += "  " + d + "\n"
	}
	return out
}

// fedFaultSchedule drives one federation (or the flat control) through
// the shared fault timeline: boot, 15% fabric loss with a 20 s fault
// window mid-loss, heal, settle. The timeline is identical for every
// topology — down/up only toggle state, never advance the clock — so
// the runs end at the same virtual instant with identical
// (clock-driven) agent state.
func fedFaultSchedule(fed *FedSim, down, up func(*FedSim)) {
	fed.PowerOnAll()
	fed.Advance(30 * time.Second) // lossless boot: registration + first uplink snap-alls
	fed.Net.SetLoss(0.15)
	fed.Advance(40 * time.Second)
	if down != nil {
		down(fed) // topology-specific fault begins
	}
	fed.Advance(20 * time.Second)
	if up != nil {
		up(fed)
	}
	fed.Advance(40 * time.Second)
	fed.Net.SetLoss(0)
	fed.Advance(90 * time.Second) // past agent AND uplink anti-entropy
	fed.Stop()
	fed.Advance(5 * time.Second) // drain in-flight frames and final flushes
}

// TestFedLossKillRejoinConverges is federation's fault acceptance run: a
// 2-leaf tree rides 15% fabric loss while one leaf's uplink process is
// killed and rejoined mid-schedule. After the heal the root must hold a
// byte-identical view of every agent — and byte-identical to a flat
// single-server control run over the same seeds and timeline, proving
// the extra hop and the healing machinery (link desync -> "!uresync" ->
// snap-all, restart from a fresh session) add no divergence.
func TestFedLossKillRejoinConverges(t *testing.T) {
	fed, err := NewFedSim(FedConfig{
		Fanout: 2, Tiers: 2, NodesPerLeaf: 3,
		EchoSweep: -1, AntiEntropy: 20 * time.Second,
		UplinkAntiEntropy: 20 * time.Second,
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	// Kill leaf 0's forwarder for the 20 s fault window, then rejoin as a
	// fresh process (Restart drops all session state — link sequence and
	// dictionary).
	fedFaultSchedule(fed,
		func(f *FedSim) { f.Leaves[0].UpEp.SetUp(false) },
		func(f *FedSim) {
			f.Leaves[0].UpEp.SetUp(true)
			f.Leaves[0].Uplink.Restart()
		})

	// The flat control: the same six agents, same seeds, same timeline,
	// one server, no federation. Its converged state is the ground truth
	// the federated root must reproduce byte for byte.
	flat, err := NewFedSim(FedConfig{
		Tiers: 1, NodesPerLeaf: 6,
		EchoSweep: -1, AntiEntropy: 20 * time.Second,
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(flat.Stop)
	fedFaultSchedule(flat, nil, nil)

	// The schedule must actually have hurt: link-down send failures on
	// the killed leaf, and loss-induced batch desyncs healed by snap-alls.
	killed := fed.Leaves[0].Uplink.Stats()
	if killed.SendFails == 0 {
		t.Error("killed leaf saw no uplink send failures")
	}
	if killed.Frames == 0 {
		t.Errorf("killed leaf never forwarded a batch: %+v", killed)
	}
	in := fed.Root.Server.UplinkInStats()
	if in.Desyncs == 0 {
		t.Errorf("15%% loss produced no batch chain breaks: %+v", in)
	}
	snapAlls := killed.SnapAlls
	if snapAlls < 2 {
		t.Errorf("kill/rejoin + desyncs should force repeated snap-alls, got %d", snapAlls)
	}

	// Convergence, three ways: root matches each agent, the flat control
	// matches each agent, and root matches the flat control byte for
	// byte on every raw node.
	var diffs []string
	for _, leaf := range fed.Leaves {
		for i, agent := range leaf.Sim.Agents {
			name := leaf.Sim.Nodes[i].Name()
			diffs = append(diffs, syncDiff(fed.Root.Server, name, agent.Consolidator().Snapshot())...)
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("federated root diverged from agents after heal (%d diffs):\n%s", len(diffs), joinDiffs(diffs))
	}
	flatSrv := flat.Root.Server
	for i, agent := range flat.Root.Sim.Agents {
		name := flat.Root.Sim.Nodes[i].Name()
		if d := syncDiff(flatSrv, name, agent.Consolidator().Snapshot()); len(d) > 0 {
			t.Fatalf("flat control diverged from its own agents:\n%s", joinDiffs(d))
		}
		if d := syncDiff(fed.Root.Server, name, flatSrv.NodeValues(name)); len(d) > 0 {
			t.Fatalf("federated root != flat control for %s:\n%s", name, joinDiffs(d))
		}
	}
}
