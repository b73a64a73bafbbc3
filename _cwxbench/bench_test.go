package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/transmit"
)

// Toy sizes: every workload runs end to end in about a second.
var toy = map[string]size{
	"fleet":      {nodes: 16, setups: 2, warm: 2},
	"dashboard":  {nodes: 8, setups: 2, warm: 2, prefill: 520},
	"federation": {nodes: 32, setups: 2, warm: 2},
}

// spec is the metric list BENCHMARK.json declares.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsToy runs each workload untraced and traced at toy size:
// no failed op or check, and exactly the metrics and units
// BENCHMARK.json declares, every end-to-end one above zero.
func TestWorkloadsToy(t *testing.T) {
	sp := loadSpec(t)
	for name, sz := range toy {
		for _, traced := range []bool{false, true} {
			res, report, err := run(options{workload: name, seed: 7, seconds: 0.4, trace: traced}, sz)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, traced, res.Correct, res.Failed, res.Attempted, strings.Join(report, "\n"))
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %s, want %s", name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func build(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloads[name].build(3, toy[name])
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	w.cycle(rec, nil)
	w.cycle(rec, nil)
	if rec.failed != 0 {
		t.Fatalf("%s: clean cycles failed: %v", name, rec.fails)
	}
	if _, fails := w.check(); len(fails) != 0 {
		t.Fatalf("%s: clean run fails its checks: %v", name, fails)
	}
	return w
}

func wantFails(t *testing.T, w workload, n int, substr string) {
	t.Helper()
	_, fails := w.check()
	if len(fails) != n {
		t.Fatalf("check reported %d failures, want %d: %v", len(fails), n, fails)
	}
	for _, f := range fails {
		if !strings.Contains(f, substr) {
			t.Errorf("failure %q does not mention %q", f, substr)
		}
	}
}

func corrupt(node, metric string, v float64) transmit.Frame {
	return transmit.Frame{Node: node, Kind: transmit.FrameDelta, Values: []consolidate.Value{consolidate.NumValue(metric, consolidate.Dynamic, v)}}
}

// The fleet checks trip on a server value that no longer matches the
// agent, and on a sequence gap on the lossless path.
func TestFleetChecksTrip(t *testing.T) {
	f := build(t, "fleet").(*fleet)
	if err := f.srv.HandleFrame(corrupt("n0003", "load.1", -1)); err != nil {
		t.Fatal(err)
	}
	wantFails(t, f, 1, "n0003")

	f = build(t, "fleet").(*fleet)
	f.ns[5].sess.seq++ // the next frame skips a sequence number
	rec := &recorder{}
	f.cycle(rec, nil)
	if rec.failed != 1 || !strings.Contains(rec.fails[0], f.ns[5].sess.node) {
		t.Fatalf("sequence gap: failed=%d %v", rec.failed, rec.fails)
	}
}

// The dashboard checks trip on a cached answer that differs from the
// uncached one, on an ERR answer, and on a value the server lost.
func TestDashboardChecksTrip(t *testing.T) {
	d := build(t, "dashboard").(*dashboard)
	rec := &recorder{}
	line := "values " + d.names[2]
	d.verify(line, d.srv.HandleCtl(line), rec)
	if rec.failed != 0 {
		t.Fatalf("identical answers flagged: %v", rec.fails)
	}
	d.verify(line, d.srv.HandleCtl(line)+"x", rec)
	if rec.failed != 1 || rec.checks != 2 {
		t.Fatalf("corrupted answer: failed=%d checks=%d", rec.failed, rec.checks)
	}
	query(d.srv, "values nosuchnode", "values", rec, nil)
	if rec.failed != 2 {
		t.Fatalf("ERR answer not counted: %v", rec.fails)
	}
	if err := d.srv.HandleFrame(corrupt(d.names[4], "cpu.user", -7)); err != nil {
		t.Fatal(err)
	}
	wantFails(t, d, 1, d.names[4])
}

// The federation checks trip on a root mirror that differs from its
// leaf, and on a root aggregate that differs from the recomputation.
func TestFederationChecksTrip(t *testing.T) {
	f := build(t, "federation").(*federation)
	if err := f.root.srv.HandleFrame(corrupt(f.ns[9].sess.node, "m00", 1e6)); err != nil {
		t.Fatal(err)
	}
	wantFails(t, f, 1, f.ns[9].sess.node)

	f = build(t, "federation").(*federation)
	if err := f.root.srv.HandleFrame(corrupt("grid/root", "m03.max", -1)); err != nil {
		t.Fatal(err)
	}
	wantFails(t, f, 1, "grid/root")
}
