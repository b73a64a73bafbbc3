package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/transmit"
)

// dashMetrics is the dashboard's per-node value set, named like the
// built-in monitors. The first dashVarying vary; the three boolean
// probes stay at 1 and are never queried (a single point charts nothing
// and trends to an error).
var dashMetrics = []string{
	"cpu.user", "cpu.system", "cpu.idle", "cpu.iowait", "cpu.ctxt.rate",
	"mem.used.pct", "mem.free", "mem.cached", "mem.buffers", "swap.used.pct",
	"load.1", "load.5", "load.15", "procs.running",
	"net.eth0.rx.rate", "net.eth0.tx.rate", "net.eth0.rx.errs",
	"disk.read.rate", "disk.write.rate", "uptime", "hw.temp.cpu",
	"hw.fan.ok", "hw.power.ok", "net.echo.ok",
}

const dashVarying = 21

// Query mix: the verbs take turns, as in the repository's mixed
// read/write serving benchmark (E20), and each draws its request line
// uniformly from its own pool. No operator traffic has been measured,
// so no verb and no view is weighted above another.
var dashVerbs = []string{"status", "values", "compare", "history", "chart", "spark", "trend"}

const (
	dashQueries     = 16 // queries per cycle; each cycle ends with one write
	dashCheckEvery  = 64 // one in this many answers is checked against the uncached path
	dashWriteMaxVal = 4  // a write changes 1..dashWriteMaxVal values
)

// dashPool is one verb's request lines.
type dashPool struct {
	verb  string
	lines []string
}

// dashboard is the operator read path: a pre-filled server answers a
// seeded mix of reads, with one small write per refresh cycle.
type dashboard struct {
	clk    *clock.Clock
	srv    *core.Server
	names  []string
	sess   []*session
	vals   [][]float64
	pools  []dashPool // one per dashVerbs entry
	nq     int        // queries issued: the verb turn
	rng    *rand.Rand
	order  []int // write order: each node written once per len(order) writes
	writes int64
	vbuf   []consolidate.Value
}

// walk moves a value by a seeded step, kept inside a range that trips
// none of the default rules.
func walk(rng *rand.Rand, v float64, metric int) float64 {
	v += math.Round((rng.Float64()*2-1)*100) / 100
	hi := 100.0
	switch dashMetrics[metric] {
	case "load.1", "load.5", "load.15":
		hi = 8
	case "swap.used.pct":
		hi = 50
	case "hw.temp.cpu":
		if v < 40 {
			v = 40
		}
		hi = 70
	}
	return math.Max(0, math.Min(hi, v))
}

func buildDashboard(seed int64, sz size) (workload, error) {
	clk := clock.New()
	d := &dashboard{
		clk: clk,
		srv: core.NewServer(core.ServerConfig{Cluster: "dashboard", Now: clk.Now}),
		rng: rand.New(rand.NewSource(seed)),
	}
	if err := installDefaultRules(d.srv); err != nil {
		return nil, err
	}
	for i := 0; i < sz.nodes; i++ {
		name := fmt.Sprintf("d%03d", i)
		d.names = append(d.names, name)
		d.sess = append(d.sess, newSession(name))
		v := make([]float64, len(dashMetrics))
		for k := range v {
			v[k] = walk(d.rng, 50, k)
			if k >= dashVarying {
				v[k] = 1
			}
		}
		d.vals = append(d.vals, v)
	}
	// Pre-fill: every node reports every varying value each virtual
	// second, straight into ingest, so each queried series holds sealed
	// blocks as well as a head.
	for r := 0; r < sz.prefill; r++ {
		clk.Advance(time.Second)
		for i, name := range d.names {
			d.vbuf = d.vbuf[:0]
			for k, m := range dashMetrics {
				if r > 0 && k >= dashVarying {
					continue
				}
				if k < dashVarying {
					d.vals[i][k] = walk(d.rng, d.vals[i][k], k)
				}
				d.vbuf = append(d.vbuf, consolidate.NumValue(m, consolidate.Dynamic, d.vals[i][k]))
			}
			if err := d.srv.HandleFrame(transmit.Frame{Node: name, Kind: transmit.FrameDelta, Values: d.vbuf}); err != nil {
				return nil, fmt.Errorf("dashboard prefill: %w", err)
			}
		}
	}
	for _, verb := range dashVerbs {
		p := dashPool{verb: verb}
		switch verb {
		case "status":
			p.lines = []string{"status"}
		case "values":
			for _, node := range d.names {
				p.lines = append(p.lines, "values "+node)
			}
		case "compare":
			for _, metric := range dashMetrics[:dashVarying] {
				p.lines = append(p.lines, "compare "+metric)
			}
		default: // every node/varying-metric series
			for _, node := range d.names {
				for _, metric := range dashMetrics[:dashVarying] {
					p.lines = append(p.lines, verb+" "+node+" "+metric)
				}
			}
		}
		d.pools = append(d.pools, p)
	}
	d.order = d.rng.Perm(len(d.names))
	return d, nil
}

func (d *dashboard) cycle(rec *recorder, tr *tracer) {
	rid := tr.begin(spRound, 0)
	c0 := cpuNow()
	excl := rec.excludedNs
	for q := 0; q < dashQueries; q++ {
		p := &d.pools[d.nq%len(d.pools)]
		d.nq++
		line := p.lines[d.rng.Intn(len(p.lines))]
		resp := query(d.srv, line, p.verb, rec, tr)
		if d.rng.Intn(dashCheckEvery) == 0 {
			d.verify(line, resp, rec)
		}
	}
	d.write(rec, tr)
	rec.roundLat.add(cpuNow() - c0 - time.Duration(rec.excludedNs-excl))
	tr.end(rid)
}

// verify checks a served answer against the uncached path, which
// rebuilds it from the registry and history. Its time and allocations
// are kept out of the phase's totals.
func (d *dashboard) verify(line, resp string, rec *recorder) {
	x0, a0 := cpuNow(), allocsNow()
	rec.checks++
	if want := d.srv.HandleCtlUncached(line); resp != want {
		rec.fail(fmt.Sprintf("dashboard: %q: cached answer differs from uncached", line))
	}
	rec.excludedNs += int64(cpuNow() - x0)
	rec.excludedAllocs += allocsNow() - a0
}

// write is one agent's small delta on its v2 session. Nodes take turns,
// so with the virtual clock moving 1/len(nodes) s per write each node
// reports about once a virtual second and none falls silent.
func (d *dashboard) write(rec *recorder, tr *tracer) {
	d.clk.Advance(time.Second / time.Duration(len(d.names)))
	i := d.order[d.writes%int64(len(d.order))]
	d.writes++
	d.vbuf = d.vbuf[:0]
	n := 1 + d.rng.Intn(dashWriteMaxVal)
	k0 := d.rng.Intn(dashVarying)
	for j := 0; j < n; j++ {
		k := (k0 + j) % dashVarying // distinct metrics, in a valid delta
		d.vals[i][k] = walk(d.rng, d.vals[i][k], k)
		d.vbuf = append(d.vbuf, consolidate.NumValue(dashMetrics[k], consolidate.Dynamic, d.vals[i][k]))
	}
	sid := tr.begin(spSample, d.writes)
	s0 := cpuNow()
	d.sess[i].encode(transmit.Frame{Kind: transmit.FrameDelta, Values: d.vbuf, SentNs: int64(d.clk.Now())}, tr, d.writes)
	agent := cpuNow() - s0
	wire, err := d.sess[i].deliver(d.srv, tr, d.writes)
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
}

// check: the server holds exactly the values the benchmark wrote. (The
// cached ≡ uncached checks run inside the loop.)
func (d *dashboard) check() (int, []string) {
	var fails []string
	for i, name := range d.names {
		got := d.srv.NodeValues(name)
		ok := len(got) == len(dashMetrics)
		for _, v := range got {
			k := indexOf(dashMetrics, v.Name)
			ok = ok && k >= 0 && !v.IsText && v.Num == d.vals[i][k]
		}
		if !ok {
			fails = append(fails, fmt.Sprintf("dashboard: %s: server values differ from the values written", name))
		}
	}
	return len(d.names), fails
}

func indexOf(list []string, s string) int {
	for i, x := range list {
		if x == s {
			return i
		}
	}
	return -1
}

func (d *dashboard) nodes() int      { return len(d.names) }
func (d *dashboard) opIsQuery() bool { return true }

func (d *dashboard) traceEnd(tr *tracer) {
	tr.add(sumHistoryBytes, float64(d.srv.History().Bytes()))
}
