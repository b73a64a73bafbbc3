package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/transmit"
)

// Federation shape: leaves → mids → root, wired in-process.
const (
	fedLeaves   = 16
	fedMids     = 4
	fedMetrics  = 62
	fedBusyPct  = 25 // share of nodes that change in a round
	fedMaxDelta = 8  // a busy node changes 1..fedMaxDelta values
)

// fedMetricNames are the synthetic nodes' metric names.
var fedMetricNames = func() []string {
	out := make([]string, fedMetrics)
	for i := range out {
		out[i] = fmt.Sprintf("m%02d", i)
	}
	return out
}()

// tier is one federated server with its uplink to the parent tier (nil
// at the root) and its subtree rollup.
type tier struct {
	srv    *core.Server
	up     *core.Uplink
	roll   *core.Rollup
	link   *link  // the parent's receive side of up
	out    []byte // payloads up.Send handed over this flush, back to back
	outEnd []int  // end offset of each payload in out
}

// link is the parent side of one child's uplink session, as a socket
// reader in cwxd would run it: batch decode into the parent's ingest,
// v1 frames (before the upgrade) parsed and ingested, and the control
// replies the child is owed.
type link struct {
	parent *core.Server
	bdec   *transmit.BatchDecoderV2
	emit   func(transmit.Frame)
	tr     *tracer
	ctl    [][]byte
	err    error // first ingest error of the current payload
}

func newLink(parent *core.Server) *link {
	l := &link{parent: parent, bdec: transmit.NewBatchDecoderV2()}
	l.emit = func(f transmit.Frame) {
		id := l.tr.begin(spParentIngest, 0)
		err := l.parent.HandleFrame(f)
		l.tr.end(id)
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("parent ingest of %s: %w", f.Node, err)
		}
	}
	return l
}

func (l *link) reply(b []byte) { l.ctl = append(l.ctl, append([]byte(nil), b...)) }

// receive handles one payload from the child. It returns an error for
// anything that is not a clean, in-order delivery.
func (l *link) receive(p []byte) error {
	l.err = nil
	if transmit.IsV2BatchPayload(p) {
		id := l.tr.begin(spBatchDecode, 0)
		_, err := l.bdec.Decode(p, l.emit)
		l.tr.end(id)
		switch {
		case errors.Is(err, transmit.ErrV2Desync):
			l.reply(transmit.MarshalUplinkResync(nil))
		case errors.Is(err, transmit.ErrV2NeedReset):
			l.reply(transmit.MarshalWireReset(nil))
		}
		if n, ok := l.bdec.PendingAck(); ok {
			l.reply(transmit.MarshalDictAck(nil, n))
		}
		if err != nil {
			return fmt.Errorf("batch decode: %w", err)
		}
		return l.err
	}
	f, err := transmit.ParseFrame(p)
	if err != nil {
		return fmt.Errorf("v1 uplink frame: %w", err)
	}
	if f.WireOffer >= transmit.WireV2 {
		l.reply(transmit.MarshalWireAnswer(nil, transmit.WireV2))
	}
	if err := l.parent.HandleFrame(f); err != nil {
		if errors.Is(err, core.ErrResyncNeeded) {
			l.reply(transmit.MarshalResync(nil, f.Node))
		}
		return fmt.Errorf("v1 uplink ingest of %s: %w", f.Node, err)
	}
	return nil
}

type fedNode struct {
	sess  *session
	leaf  int
	vals  []float64
	start time.Duration
}

// federation is the three-tier tree: synthetic node deltas into the
// leaves, per-tier rollup and batched uplink flush, up to the root.
type federation struct {
	clk    *clock.Clock
	leaves []*tier
	mids   []*tier
	root   *tier
	ns     []*fedNode
	busy   []int // nodes whose sample this round reached its leaf
	rng    *rand.Rand
	sample int64
	vbuf   []consolidate.Value
	visAt  []time.Duration
}

func newTier(clk *clock.Clock, name, agg, childPrefix string, parent *tier) *tier {
	t := &tier{srv: core.NewServer(core.ServerConfig{Cluster: name, Now: clk.Now})}
	t.roll = core.NewRollup(t.srv, agg, childPrefix)
	if parent != nil {
		t.link = newLink(parent.srv)
		t.up = core.NewUplink(t.srv, core.UplinkConfig{Name: name, Send: func(p []byte) error {
			t.out = append(t.out, p...)
			t.outEnd = append(t.outEnd, len(t.out))
			return nil
		}})
		t.srv.SetUplink(t.up)
	}
	return t
}

func buildFederation(seed int64, sz size) (workload, error) {
	clk := clock.New()
	f := &federation{clk: clk, rng: rand.New(rand.NewSource(seed))}
	f.root = newTier(clk, "root", "grid/root", "row/", nil)
	for m := 0; m < fedMids; m++ {
		f.mids = append(f.mids, newTier(clk, fmt.Sprintf("mid%02d", m), fmt.Sprintf("row/mid%02d", m), "rack/", f.root))
	}
	for l := 0; l < fedLeaves; l++ {
		name := fmt.Sprintf("leaf%02d", l)
		f.leaves = append(f.leaves, newTier(clk, name, "rack/"+name, "", f.mids[l*fedMids/fedLeaves]))
	}
	f.visAt = make([]time.Duration, fedMids)
	// Registration: every node's first frame is a full snapshot of
	// seeded integer values (so any order of summation is exact).
	clk.Advance(time.Second)
	for i := 0; i < sz.nodes; i++ {
		name := fmt.Sprintf("f%05d", i)
		fn := &fedNode{sess: newSession(name), leaf: i * fedLeaves / sz.nodes, vals: make([]float64, fedMetrics)}
		f.vbuf = f.vbuf[:0]
		for k := range fn.vals {
			fn.vals[k] = float64(f.rng.Intn(1000))
			f.vbuf = append(f.vbuf, consolidate.NumValue(fedMetricNames[k], consolidate.Dynamic, fn.vals[k]))
		}
		fn.sess.encode(transmit.Frame{Kind: transmit.FrameSnapshot, Values: f.vbuf, SentNs: int64(clk.Now())}, nil, 0)
		if _, err := fn.sess.deliver(f.leaves[fn.leaf].srv, nil, 0); err != nil {
			return nil, fmt.Errorf("federation registration: %w", err)
		}
		f.ns = append(f.ns, fn)
	}
	// Settle the uplinks: the first flush offers v2 on v1 frames, the
	// answer upgrades the session and arms a batched snap-all, and the
	// dictionary acks come back on the flush after that.
	for r := 0; r < 3; r++ {
		clk.Advance(time.Second)
		if _, err := f.propagate(nil); err != nil {
			return nil, fmt.Errorf("federation settle round %d: %w", r, err)
		}
	}
	return f, nil
}

// propagate runs every tier bottom-up: rollup, flush, delivery into the
// parent, then the parent's control replies back into the uplink. It
// notes when each mid's batch became visible at the root and returns
// the bytes that crossed the top link.
func (f *federation) propagate(tr *tracer) (int64, error) {
	now := int64(f.clk.Now())
	var top int64
	for level, tiers := range [][]*tier{f.leaves, f.mids} {
		for i, t := range tiers {
			id := tr.begin(spRollup, 0)
			gen := t.srv.Generation()
			t.roll.Tick()
			tr.end(id)
			if tr != nil && t.srv.Generation() != gen {
				tr.add(sumRollupEmits, 1)
			}
			var before core.UplinkStats
			if tr != nil {
				before = t.up.Stats()
			}
			id = tr.begin(spFlush, 0)
			_, err := t.up.Flush(now)
			tr.end(id)
			if err != nil {
				return top, fmt.Errorf("flush: %w", err)
			}
			if tr != nil {
				after := t.up.Stats()
				tr.add(sumUplinkNodes, float64(after.Nodes-before.Nodes))
				tr.add(sumUplinkBytes, float64(after.Bytes-before.Bytes))
			}
			if level == 1 {
				top += int64(len(t.out))
			}
			if err := t.deliver(tr, now); err != nil {
				return top, err
			}
			if level == 1 {
				f.visAt[i] = cpuNow()
			}
		}
	}
	id := tr.begin(spRollup, 0)
	gen := f.root.srv.Generation()
	f.root.roll.Tick()
	tr.end(id)
	if tr != nil && f.root.srv.Generation() != gen {
		tr.add(sumRollupEmits, 1)
	}
	return top, nil
}

// deliver hands this flush's payloads to the parent, then returns the
// parent's control replies to the uplink.
func (t *tier) deliver(tr *tracer, now int64) error {
	t.link.tr = tr
	var first error
	start := 0
	for _, end := range t.outEnd {
		if err := t.link.receive(t.out[start:end]); err != nil && first == nil {
			first = err
		}
		start = end
	}
	t.out, t.outEnd = t.out[:0], t.outEnd[:0]
	for _, c := range t.link.ctl {
		id := tr.begin(spControl, 0)
		t.up.HandleControl(c, now)
		tr.end(id)
	}
	t.link.ctl = t.link.ctl[:0]
	return first
}

func (f *federation) cycle(rec *recorder, tr *tracer) {
	rid := tr.begin(spRound, 0)
	f.clk.Advance(time.Second)
	now := int64(f.clk.Now())
	r0 := cpuNow()
	f.busy = f.busy[:0]
	for i, fn := range f.ns {
		if f.rng.Intn(100) >= fedBusyPct {
			continue
		}
		f.vbuf = f.vbuf[:0]
		n := 1 + f.rng.Intn(fedMaxDelta)
		k0 := f.rng.Intn(fedMetrics)
		for j := 0; j < n; j++ {
			k := (k0 + j) % fedMetrics
			fn.vals[k] = float64(f.rng.Intn(1000))
			f.vbuf = append(f.vbuf, consolidate.NumValue(fedMetricNames[k], consolidate.Dynamic, fn.vals[k]))
		}
		f.sample++
		sid := tr.begin(spSample, f.sample)
		fn.start = cpuNow()
		fn.sess.encode(transmit.Frame{Kind: transmit.FrameDelta, Values: f.vbuf, SentNs: now}, tr, f.sample)
		rec.agentNs += int64(cpuNow() - fn.start)
		rec.agentN++
		if _, err := fn.sess.deliver(f.leaves[fn.leaf].srv, tr, f.sample); err != nil {
			rec.fail(err.Error())
		} else {
			f.busy = append(f.busy, i)
		}
		tr.end(sid)
	}
	top, err := f.propagate(tr)
	if err != nil {
		rec.fail("federation: " + err.Error())
		f.busy = f.busy[:0] // nothing of this round is known to have arrived
	}
	rec.roundLat.add(cpuNow() - r0)
	for _, i := range f.busy {
		fn := f.ns[i]
		rec.sampleLat.add(f.visAt[fn.leaf*fedMids/fedLeaves] - fn.start)
	}
	rec.samples += int64(len(f.busy))
	rec.wireBytes += top
	rec.wireN += int64(len(f.busy))
	// An operator watching the grid's aggregate at the root. One kind
	// of read, so its percentiles do not fall on the edge between the
	// costs of two kinds.
	query(f.root.srv, "values grid/root", "values", rec, tr)
	tr.end(rid)
}

// check: root mirrors equal leaf values byte for byte, and grid/root's
// count/min/max/sum equal a recomputation from the leaves.
func (f *federation) check() (int, []string) {
	var fails []string
	type agg struct{ cnt, min, max, sum float64 }
	want := map[string]*agg{}
	for _, fn := range f.ns {
		leaf := f.leaves[fn.leaf].srv.NodeValues(fn.sess.node)
		if render(f.root.srv.NodeValues(fn.sess.node)) != render(leaf) {
			fails = append(fails, fmt.Sprintf("federation: %s: root mirror differs from the leaf", fn.sess.node))
		}
		for _, v := range leaf {
			a := want[v.Name]
			if a == nil {
				a = &agg{min: v.Num, max: v.Num}
				want[v.Name] = a
			}
			a.cnt++
			a.sum += v.Num
			a.min = min(a.min, v.Num)
			a.max = max(a.max, v.Num)
		}
	}
	got := map[string]float64{}
	for _, v := range f.root.srv.NodeValues("grid/root") {
		got[v.Name] = v.Num
	}
	bad := len(got) != 4*len(want)
	for name, a := range want {
		for suffix, w := range map[string]float64{".cnt": a.cnt, ".min": a.min, ".max": a.max, ".sum": a.sum} {
			if g, ok := got[name+suffix]; !ok || g != w {
				bad = true
			}
		}
	}
	if bad {
		fails = append(fails, "federation: grid/root aggregates differ from a recomputation over the leaves")
	}
	return len(f.ns) + 1, fails
}

func (f *federation) nodes() int      { return len(f.ns) }
func (f *federation) opIsQuery() bool { return false }

func (f *federation) traceEnd(tr *tracer) {
	for _, t := range append(append([]*tier{f.root}, f.mids...), f.leaves...) {
		tr.add(sumHistoryBytes, float64(t.srv.History().Bytes()))
	}
}
