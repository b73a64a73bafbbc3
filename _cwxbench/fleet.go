package main

import (
	"fmt"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/flight"
	"clusterworx/internal/monitor"
	"clusterworx/internal/node"
	"clusterworx/internal/transmit"
)

// fleet is the paper's pipeline at cluster scale: every simulated node
// gathers its procfs, consolidates, encodes a v2 frame on its own
// session and the one server ingests it, once per 1 s virtual round.
type fleet struct {
	clk    *clock.Clock
	srv    *core.Server
	ns     []*fleetNode
	round  int64
	sample int64
}

type fleetNode struct {
	n      *node.Node
	set    *monitor.Set
	cons   *consolidate.Consolidator
	sess   *session
	values string // the "values <node>" request line
	salt   uint32
	ticks  uint64
	phase  int64 // anti-entropy stagger
	sentAt int64 // round of the last transmission
}

// Agent defaults (core.AgentConfig): a snapshot every 60 periods, a
// heartbeat after 5 silent ones.
const (
	antiEntropyRounds = 60
	heartbeatRounds   = 5
)

func buildFleet(seed int64, sz size) (workload, error) {
	clk := clock.New()
	f := &fleet{
		clk: clk,
		srv: core.NewServer(core.ServerConfig{Cluster: "fleet", Now: clk.Now}),
	}
	if err := installDefaultRules(f.srv); err != nil {
		return nil, err
	}
	for i := 0; i < sz.nodes; i++ {
		name := fmt.Sprintf("n%04d", i)
		// Nodes as the simulator builds them (core.Sim: default
		// hardware, a seed per node) under cwxsim's offered load.
		n := node.New(clk, node.Config{Name: name, Seed: nodeSeed(seed, i)})
		n.SetLoad(float64(i%4) * 0.5)
		n.PowerOn()
		set, err := monitor.NewSet(monitor.Config{FS: n.FS(), Hostname: name, Now: clk.Now, Probes: n, Echo: n.Reachable})
		if err != nil {
			return nil, err
		}
		cons := consolidate.New()
		if err := set.Install(cons); err != nil {
			return nil, err
		}
		f.ns = append(f.ns, &fleetNode{
			n: n, set: set, cons: cons, sess: newSession(name),
			values: "values " + name,
			salt:   flight.Salt(name),
			phase:  int64(i * antiEntropyRounds / sz.nodes),
		})
	}
	// Boot every node; the agent starts once the OS is up.
	for t := 0; ; t++ {
		up := 0
		for _, fn := range f.ns {
			if fn.n.State() == node.Up {
				up++
			}
		}
		if up == len(f.ns) {
			break
		}
		if t == 600 {
			return nil, fmt.Errorf("fleet: %d of %d nodes up after %d virtual seconds", up, len(f.ns), t)
		}
		clk.Advance(time.Second)
	}
	// Registration round: every agent's first frame is a full snapshot.
	for _, fn := range f.ns {
		fn.cons.Tick()
		fn.cons.Delta()
		fn.sess.encode(transmit.Frame{Kind: transmit.FrameSnapshot, Values: fn.cons.Snapshot(), SentNs: int64(clk.Now())}, nil, 0)
		if _, err := fn.sess.deliver(f.srv, nil, 0); err != nil {
			return nil, fmt.Errorf("fleet registration: %w", err)
		}
	}
	return f, nil
}

func (f *fleet) cycle(rec *recorder, tr *tracer) {
	rid := tr.begin(spRound, 0)
	f.clk.Advance(time.Second)
	f.round++
	now := int64(f.clk.Now())
	r0 := cpuNow()
	for _, fn := range f.ns {
		f.sample++
		sid := tr.begin(spSample, f.sample)
		s0 := cpuNow()
		id := tr.begin(spTick, f.sample)
		fn.cons.Tick()
		tr.end(id)
		snap := (f.round+fn.phase)%antiEntropyRounds == 0
		id = tr.begin(spDelta, f.sample)
		values, kind := fn.cons.Delta(), transmit.FrameDelta
		if snap {
			values, kind = fn.cons.Snapshot(), transmit.FrameSnapshot
		}
		diffNs := tr.end(id)
		if tr != nil {
			gather, cons, _ := fn.cons.TickTelemetry()
			tr.add(sumGatherNs, float64(gather))
			tr.add(sumConsNs, float64(cons)+float64(diffNs))
			tr.add(sumConsOut, float64(len(values)))
			tr.add(sumAgentSamples, 1)
		}
		fn.ticks++
		if len(values) == 0 && !snap && f.round-fn.sentAt < heartbeatRounds {
			tr.end(sid) // nothing changed: the agent stays silent
			continue
		}
		fn.sentAt = f.round
		fr := transmit.Frame{Kind: kind, Values: values, SentNs: now}
		if id := flight.NextTrace(fn.salt, fn.ticks); id != 0 {
			fr.TraceID, fr.TraceNs = id, now
		}
		fn.sess.encode(fr, tr, f.sample)
		agent := cpuNow() - s0
		wire, err := fn.sess.deliver(f.srv, tr, f.sample)
		rec.sampleLat.add(cpuNow() - s0)
		tr.end(sid)
		rec.agentNs += int64(agent)
		rec.agentN++
		rec.wireBytes += wire
		rec.wireN++
		if err != nil {
			rec.fail(err.Error())
		} else {
			rec.samples++
		}
		if f.sample%64 == 0 {
			query(f.srv, fn.values, "values", rec, tr)
		}
	}
	rec.roundLat.add(cpuNow() - r0)
	query(f.srv, "status", "status", rec, tr)
	tr.end(rid)
}

// check: every node's server-side values equal its consolidator's
// snapshot byte for byte.
func (f *fleet) check() (int, []string) {
	var fails []string
	for _, fn := range f.ns {
		got, want := render(f.srv.NodeValues(fn.sess.node)), render(fn.cons.Snapshot())
		if got != want {
			fails = append(fails, fmt.Sprintf("fleet: %s: server values differ from the agent snapshot", fn.sess.node))
		}
	}
	return len(f.ns), fails
}

func (f *fleet) nodes() int      { return len(f.ns) }
func (f *fleet) opIsQuery() bool { return false }

func (f *fleet) traceEnd(tr *tracer) {
	tr.add(sumHistoryBytes, float64(f.srv.History().Bytes()))
}
