// Command cwxbench is the repository's end-to-end and per-layer
// benchmark of the monitoring pipeline. It builds one of three seeded
// workloads in-process from the program's public pieces, drives it as a
// closed loop on a single goroutine, checks the program's outputs, and
// prints one JSON result line last. See README.md for the workloads,
// the metric table and the layer → end-to-end mapping.
//
// Usage (from the repository root):
//
//	bash _cwxbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark scenario, built and ready to run.
type workload interface {
	// cycle runs one closed-loop cycle: a monitoring round in fleet and
	// federation, one refresh (16 queries and a write) in dashboard.
	cycle(rec *recorder, tr *tracer)
	// check runs the end-of-run correctness checks: the number made and
	// one message per failure.
	check() (checks int, fails []string)
	// nodes is the number of monitored nodes (heap_bytes_per_node).
	nodes() int
	// opIsQuery is true when the workload's op is a query, false when
	// it is a sample.
	opIsQuery() bool
	// traceEnd adds to tr.sums the per-layer quantities read once at the
	// end of the traced phase (history footprint).
	traceEnd(tr *tracer)
}

// size scales a workload; the self-test runs toy sizes.
type size struct {
	nodes   int // monitored nodes
	setups  int // set-ups per run; setup_s is their median
	warm    int // warm-up cycles before the heap probe and the timed phase
	prefill int // dashboard: rounds of history written during set-up
}

type buildFunc func(seed int64, sz size) (workload, error)

var workloads = map[string]struct {
	build buildFunc
	size  size
}{
	"fleet":      {buildFleet, size{nodes: 1024, setups: 3, warm: 20}},
	"dashboard":  {buildDashboard, size{nodes: 256, setups: 3, warm: 300, prefill: 600}},
	"federation": {buildFederation, size{nodes: 512, setups: 3, warm: 50}},
}

// recorder collects one phase's end-to-end observations. Every time in
// it is read on the loop thread's CPU clock (cpuNow).
type recorder struct {
	samples   int64 // node samples made visible at the top tier
	queries   int64
	checks    int64 // correctness checks made inside the loop
	failed    int64
	fails     []string // first few failure messages
	sampleLat lat
	queryLat  lat
	roundLat  lat
	agentNs   int64 // node-side cost, summed over agentN samples
	agentN    int64
	wireBytes int64 // bytes on the measured link (see README)
	wireN     int64 // samples those bytes carried
	// excluded is CPU time and allocations spent in correctness checks
	// inside the loop; both are taken out of the phase totals.
	excludedNs     int64
	excludedAllocs uint64
}

func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.fails) < 8 {
		r.fails = append(r.fails, msg)
	}
}

// phase is one timed closed-loop run and its cost counters.
type phase struct {
	rec     *recorder
	cpu     time.Duration // loop thread CPU time, checks taken out
	wall    time.Duration
	allocs  uint64
	gcs     uint32
	pauseNs uint64
	gcCPU   float64 // the runtime's estimate of GC CPU time, seconds
	procCPU float64 // CPU time of every thread of the process, seconds
	steal   int64   // host steal ticks (1/100 s, all CPUs) in /proc/stat
}

func (p *phase) ops(w workload) int64 {
	if w.opIsQuery() {
		return p.rec.queries
	}
	return p.rec.samples
}

// perCPUSecond is n per second of the process's CPU time over the
// phase, so the GC work on the runtime's other threads counts too.
func (p *phase) perCPUSecond(n int64) float64 {
	return ratio(float64(n), p.procCPU)
}

func (p *phase) rate(w workload) float64 { return p.perCPUSecond(p.ops(w)) }

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() (allocs uint64, gcCPU float64) {
	metrics.Read(rtSamples)
	return rtSamples[0].Value.Uint64(), rtSamples[1].Value.Float64()
}

// allocsNow is the cumulative heap allocation count (the counter
// runtime.MemStats.Mallocs reports, read without stopping the world).
func allocsNow() uint64 {
	a, _ := readRuntime()
	return a
}

// stealTicks is the host's steal counter: the time, in 1/100 s summed
// over every CPU, that the hypervisor ran something else while this
// guest wanted to run. It reads 0 where /proc/stat has no such field.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var n int64
	fmt.Sscan(f[8], &n)
	return n
}

// runCycles drives n whole cycles, untimed.
func runCycles(w workload, n int, rec *recorder) {
	for i := 0; i < n; i++ {
		w.cycle(rec, nil)
	}
}

// runPhase drives whole cycles for d of wall time and adds the
// observations and cost counters to ph, so one phase can be run in
// several chunks.
func runPhase(w workload, d time.Duration, tr *tracer, ph *phase) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rec := ph.rec
	excludedNs, excludedAllocs := rec.excludedNs, rec.excludedAllocs
	st0 := stealTicks()
	a0, gc0 := readRuntime()
	p0 := processCPU()
	t0, c0 := time.Now(), cpuNow()
	for time.Since(t0) < d {
		w.cycle(rec, tr)
	}
	cpu, wall := cpuNow()-c0, time.Since(t0)
	p1 := processCPU()
	a1, gc1 := readRuntime()
	st1 := stealTicks()
	runtime.ReadMemStats(&ms1)
	ph.cpu += cpu - time.Duration(rec.excludedNs-excludedNs)
	ph.wall += wall
	ph.allocs += a1 - a0 - (rec.excludedAllocs - excludedAllocs)
	ph.gcs += ms1.NumGC - ms0.NumGC
	ph.pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
	ph.gcCPU += gc1 - gc0
	ph.procCPU += (p1 - p0 - time.Duration(rec.excludedNs-excludedNs)).Seconds()
	ph.steal += st1 - st0
}

func newPhase() *phase { return &phase{rec: &recorder{}} }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd derives the end-to-end metrics of an untraced phase, each
// over the whole phase: rates per second of process CPU time, latency
// percentiles nearest-rank over every value.
func endToEnd(w workload, ph *phase, setupS float64, heapPerNode float64) metricSet {
	r := ph.rec
	m := metricSet{}
	m.set("setup_s", "s", setupS)
	m.set("samples_per_s", "1/s", ph.perCPUSecond(r.samples))
	m.set("sample_us_p50", "us", r.sampleLat.quantile(0.50))
	m.set("sample_us_p99", "us", r.sampleLat.quantile(0.99))
	m.set("agent_us_per_sample", "us", ratio(float64(r.agentNs)/1e3, float64(r.agentN)))
	m.set("round_ms_p50", "ms", r.roundLat.quantile(0.50)/1e3)
	m.set("queries_per_s", "1/s", ph.perCPUSecond(r.queries))
	m.set("query_us_p50", "us", r.queryLat.quantile(0.50))
	m.set("query_us_p99", "us", r.queryLat.quantile(0.99))
	m.set("wire_bytes_per_sample", "B", ratio(float64(r.wireBytes), float64(r.wireN)))
	m.set("heap_bytes_per_node", "B", heapPerNode)
	m.set("allocs_per_op", "count", ratio(float64(ph.allocs), float64(ph.ops(w))))
	return m
}

// perLayer derives the per-layer metrics of a traced phase, with the
// tracing overhead against the untraced phase that preceded it.
func perLayer(w workload, plain, traced *phase, tr *tracer) metricSet {
	m := metricSet{}
	s := tr.sums
	samples := s[sumAgentSamples]
	m.set("gather.us", "us", ratio(s[sumGatherNs]/1e3, samples))
	m.set("consolidate.us", "us", ratio(s[sumConsNs]/1e3, samples))
	m.set("consolidate.values_out", "count", ratio(s[sumConsOut], samples))
	m.set("consolidate.change_ratio", "ratio", ratio(s[sumChanged], s[sumGathered]))
	frames := float64(tr.count[spEncode])
	m.set("transmit.encode_us", "us", tr.meanUs(spEncode))
	m.set("transmit.frame_us", "us", tr.meanUs(spFrame))
	m.set("transmit.decode_us", "us", tr.meanUs(spDecode))
	m.set("transmit.bytes", "B", ratio(s[sumTransmitBytes], frames))
	ingests := float64(tr.count[spIngest])
	m.set("core.ingest_us", "us", ratio(s[sumIngestNs]/1e3, ingests))
	m.set("core.ingest_values", "count", ratio(s[sumIngestValues], ingests))
	m.set("events.dwell_us", "us", ratio(s[sumEventsNs]/1e3, ingests))
	ops := float64(traced.ops(w))
	m.set("history.appends", "1/op", ratio(s[sumHistoryAppends], ops))
	m.set("history.bytes", "B", ratio(s[sumHistoryBytes], float64(w.nodes())))
	for i, v := range serveVerbs {
		m.set("serve."+v+"_us", "us", tr.meanUs(spServe+i))
	}
	gets := s[sumServeHits] + s[sumServeMisses]
	m.set("serve.hit_ratio", "ratio", ratio(s[sumServeHits], gets))
	m.set("serve.rebuilds", "1/query", ratio(s[sumServeMisses], float64(traced.rec.queries)))
	m.set("history.summary_hit_ratio", "ratio", ratio(s[sumSummaryHits], s[sumSummaryHits]+s[sumDecodes]))
	m.set("core.uplink_flush_us", "us", tr.meanUs(spFlush))
	rounds := float64(tr.rounds)
	m.set("core.uplink_nodes", "1/round", ratio(s[sumUplinkNodes], rounds))
	m.set("core.uplink_bytes", "B/round", ratio(s[sumUplinkBytes], rounds))
	m.set("transmit.batch_decode_us", "us", tr.meanUs(spBatchDecode))
	m.set("core.parent_ingest_us", "us", tr.meanUs(spParentIngest))
	m.set("core.rollup_us", "us", tr.meanUs(spRollup))
	m.set("core.rollup_emit_ratio", "ratio", ratio(s[sumRollupEmits], float64(tr.count[spRollup])))
	m.set("runtime.gc_cycles", "1/s", ratio(float64(traced.gcs), traced.wall.Seconds()))
	m.set("runtime.gc_pause_us", "us", ratio(float64(traced.pauseNs)/1e3, float64(traced.gcs)))
	m.set("runtime.gc_cpu_fraction", "ratio", ratio(traced.gcCPU, traced.procCPU))
	m.set("residual_us", "us", tr.residualUs())
	m.set("trace.overhead_pct", "%", 100*ratio(plain.rate(w)-traced.rate(w), plain.rate(w)))
	return m
}

// traceChunks is how many untraced/traced pairs a traced run alternates.
const traceChunks = 5

// result is the JSON line every run prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	steal     int64     // host steal ticks over the timed phase, for the host line
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root, for the trace file and the source digest
}

// run builds the workload (several times, timing each set-up), warms
// it up by a fixed number of cycles, probes its heap, drives it, checks
// it and returns the result plus a human-readable report. The calling
// goroutine is locked to its thread for the run, so cpuNow reads the
// loop's own CPU clock.
func run(o options, sz size) (result, []string, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	spec := workloads[o.workload]
	var w workload
	var setups lat // seconds
	for i := 0; i < sz.setups; i++ {
		// Drop the previous system and hand its memory back to the OS,
		// so every set-up starts from the same state.
		w = nil
		debug.FreeOSMemory()
		c0 := cpuNow()
		var err error
		w, err = spec.build(o.seed, sz)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
	}
	// The warm-up is a fixed amount of work, so the heap probed after it
	// holds the same history on every host and every commit.
	warm := &recorder{}
	runCycles(w, sz.warm, warm)
	heap, rss := heapProbe(w)

	total := time.Duration(o.seconds * float64(time.Second))
	var out metricSet
	var rec *recorder
	var report []string
	var steal int64
	if o.trace {
		// Untraced and traced chunks alternate, so drift over the run
		// (heap growth, history heads filling) falls on both sides of
		// the tracing-overhead comparison alike.
		plain, traced, tr := newPhase(), newPhase(), newTracer()
		for i := 0; i < traceChunks; i++ {
			runPhase(w, total/(2*traceChunks), nil, plain)
			c0 := readCounters()
			runPhase(w, total/(2*traceChunks), tr, traced)
			for k, v := range readCounters() {
				tr.sums[k] += float64(v - c0[k])
			}
		}
		w.traceEnd(tr)
		out = perLayer(w, plain, traced, tr)
		rec = merge(warm, plain.rec, traced.rec)
		steal = plain.steal + traced.steal
		if o.root != "" {
			path := filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
			if err := tr.write(path); err != nil {
				return result{}, nil, fmt.Errorf("writing spans: %w", err)
			}
			report = append(report, fmt.Sprintf("spans: %d kept of %d rounds, written to %s", len(tr.kept), tr.rounds, path))
		}
	} else {
		ph := newPhase()
		runPhase(w, total, nil, ph)
		out = endToEnd(w, ph, setups.quantile(0.5), float64(heap)/float64(w.nodes()))
		rec = merge(warm, ph.rec)
		steal = ph.steal
		report = append(report,
			fmt.Sprintf("ops: %d samples, %d queries; loop CPU %.3f s, process CPU %.3f s, wall %.3f s (%.1f ops per loop CPU s); %d GC cycles, %.1f ms paused",
				ph.rec.samples, ph.rec.queries, ph.cpu.Seconds(), ph.procCPU, ph.wall.Seconds(), ratio(float64(ph.ops(w)), ph.cpu.Seconds()), ph.gcs, float64(ph.pauseNs)/1e6),
			fmt.Sprintf("memory after %d warm-up cycles: live heap %d B, RSS %d B, %d nodes", sz.warm, heap, rss, w.nodes()))
	}
	checks, fails := w.check()
	runtime.KeepAlive(w)
	attempted := rec.samples + rec.queries + rec.checks + int64(checks)
	failed := rec.failed + int64(len(fails))
	for _, f := range append(rec.fails, fails...) {
		report = append(report, "FAIL: "+f)
	}
	report = append(report, fmt.Sprintf("error_rate: %g (%d failed of %d attempted)", ratio(float64(failed), float64(attempted)), failed, attempted))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out, steal: steal}, report, nil
}

// merge sums the op, check and failure counts of several phases.
func merge(recs ...*recorder) *recorder {
	m := &recorder{}
	for _, r := range recs {
		m.samples += r.samples
		m.queries += r.queries
		m.checks += r.checks
		m.failed += r.failed
		m.fails = append(m.fails, r.fails...)
	}
	return m
}

// heapProbe reads the live heap after a full collection while the whole
// system stays reachable, and the resident set size beside it.
func heapProbe(w workload) (heap uint64, rss uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, res uint64
		if _, err := fmt.Sscan(string(b), &size, &res); err == nil {
			rss = res * uint64(os.Getpagesize())
		}
	}
	return ms.HeapAlloc, rss
}

// hostInfo records where and on what a result was measured.
func hostInfo(o options, res result) map[string]any {
	info := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"git_rev":    gitRev(),
		"steal":      res.steal,
	}
	if o.root != "" {
		info["source_sha256"] = sourceDigest(o.root)
	}
	return info
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitRev() string {
	if rev := os.Getenv("CWXBENCH_GIT_REV"); rev != "" {
		return rev
	}
	return "none"
}

// sourceDigest hashes the repository's Go sources, so a result names
// the code it measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: fleet, dashboard or federation")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase, in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.root, "root", "", "repository root (trace files go under <root>/.bench_build)")
	flag.Parse()
	o.trace = *trace == 1
	spec, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "cwxbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, report, err := run(o, spec.size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwxbench:", err)
		os.Exit(1)
	}
	meta, _ := json.Marshal(hostInfo(o, res))
	fmt.Println("host:", string(meta))
	for _, line := range report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwxbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
