// Command cwxsim is the all-in-one ClusterWorX simulator and experiment
// driver. It either regenerates the paper's evaluation tables
// (-experiment) or runs an interactive-scale simulated cluster and prints
// its monitoring screen (-nodes/-run).
//
// Usage:
//
//	cwxsim -experiment all            # every paper table (E1..E15)
//	cwxsim -experiment e1,e7          # selected experiments
//	cwxsim -experiment e7 -full       # paper-scale 400-node/2GB cloning run
//	cwxsim -nodes 40 -run 10m         # simulate a cluster, print status
//	cwxsim -topology tree:2,2 -nodes 8 -run 5m
//	                                  # 2-tier federation: 2 leaf servers
//	                                  # x 8 nodes uplinked to one root
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clusterworx/internal/core"
	"clusterworx/internal/dashboard"
	"clusterworx/internal/events"
	"clusterworx/internal/experiments"
	"clusterworx/internal/flight"
	"clusterworx/internal/image"
	"clusterworx/internal/serve"
)

func main() {
	var (
		exp   = flag.String("experiment", "", "comma-separated experiment ids (e1..e16) or 'all'")
		full  = flag.Bool("full", false, "paper-scale parameters (E7: 400+ nodes, 2 GB image; slower)")
		bench = flag.Duration("benchtime", 200*time.Millisecond, "minimum timing window for the E1-E4 micro measurements")
		nodes = flag.Int("nodes", 16, "cluster size for -run mode (per leaf server with -topology)")
		run   = flag.Duration("run", 0, "simulate a cluster for this much virtual time and print status")
		topo  = flag.String("topology", "", "federate -run mode: tree:<fanout>,<tiers> builds a server tree whose leaves host -nodes each and forward batched deltas upstream")
	)
	flag.Parse()

	switch {
	case *exp != "":
		if err := runExperiments(*exp, *full, *bench); err != nil {
			fmt.Fprintln(os.Stderr, "cwxsim:", err)
			os.Exit(1)
		}
	case *run > 0 && *topo != "":
		fanout, tiers, err := parseTopology(*topo)
		if err == nil {
			err = runTree(*nodes, fanout, tiers, *run)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cwxsim:", err)
			os.Exit(1)
		}
	case *run > 0:
		if err := runCluster(*nodes, *run); err != nil {
			fmt.Fprintln(os.Stderr, "cwxsim:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runExperiments regenerates the requested paper tables.
func runExperiments(list string, full bool, benchtime time.Duration) error {
	want := map[string]bool{}
	all := list == "all"
	for _, id := range strings.Split(strings.ToLower(list), ",") {
		want[strings.TrimSpace(id)] = true
	}
	sel := func(id string) bool { return all || want[strings.ToLower(id)] }

	type runner struct {
		id string
		fn func() (*experiments.Table, error)
	}
	cloneImg := image.New("lnxi-node", "2.1", image.BootDisk, 96<<20)
	cloneCounts := []int{10, 50, 100, 200}
	unicastCap := 50
	lossNodes := 12
	lossImg := image.New("lnxi-node", "2.1", image.BootDisk, 16<<20)
	if full {
		// The LLNL configuration: 400+ nodes, a production-size image.
		// Large chunks keep the event count tractable; bandwidth math is
		// unchanged.
		cloneImg = image.NewWithChunkSize("llnl-prod", "1.0", image.BootDisk, 2<<30, 512<<10)
		cloneCounts = []int{100, 200, 400}
		unicastCap = 0 // unicast at 400 nodes x 2 GB is hours; skip
		lossNodes = 40
	}

	runners := []runner{
		{"E1", func() (*experiments.Table, error) { return experiments.E1GatherLadder(benchtime) }},
		{"E2", func() (*experiments.Table, error) { return experiments.E2PerFileCosts(benchtime) }},
		{"E3", func() (*experiments.Table, error) { return experiments.E3ParserComparison(benchtime) }},
		{"E4", func() (*experiments.Table, error) { return experiments.E4OverheadBudget(benchtime) }},
		{"E5", func() (*experiments.Table, error) { return experiments.E5Consolidation(300) }},
		{"E6", experiments.E6Compression},
		{"E7", func() (*experiments.Table, error) {
			return experiments.E7CloneScaling(cloneCounts, cloneImg, unicastCap)
		}},
		{"E8", func() (*experiments.Table, error) {
			return experiments.E8CloneLoss([]float64{0.01, 0.05, 0.10, 0.20}, lossNodes, lossImg)
		}},
		{"E9", experiments.E9BootTimes},
		{"E10", func() (*experiments.Table, error) { return experiments.E10Notification(100) }},
		{"E11", experiments.E11ThermalRunaway},
		{"E12", experiments.E12PowerSequencing},
		{"E13", experiments.E13Console},
		{"E14", experiments.E14Slurm},
		{"E15", func() (*experiments.Table, error) { return experiments.E15Update(40) }},
		{"E16", func() (*experiments.Table, error) { return experiments.E16Schedulers(16, 60, 42) }},
	}

	ran := 0
	for _, r := range runners {
		if !sel(r.id) {
			continue
		}
		tab, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Println(tab.String())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q (want e1..e16 or all)", list)
	}
	return nil
}

// parseTopology parses a "tree:<fanout>,<tiers>" topology spec.
func parseTopology(s string) (fanout, tiers int, err error) {
	if _, serr := fmt.Sscanf(s, "tree:%d,%d", &fanout, &tiers); serr != nil || fanout < 1 || tiers < 2 {
		return 0, 0, fmt.Errorf("bad -topology %q (want tree:<fanout>,<tiers> with fanout >= 1, tiers >= 2)", s)
	}
	return fanout, tiers, nil
}

// runTree boots a federated server tree on one simulated fabric: leaf
// servers ingest real agents, every tier forwards batched change-only
// deltas up its uplink, and the root mirrors the whole grid plus
// per-subtree aggregates.
func runTree(perLeaf, fanout, tiers int, dur time.Duration) error {
	fed, err := core.NewFedSim(core.FedConfig{
		Fanout: fanout, Tiers: tiers, NodesPerLeaf: perLeaf, Seed: 1,
	})
	if err != nil {
		return err
	}
	defer fed.Stop()

	fmt.Printf("powering on %d nodes under %d leaf servers (%d tiers, fanout %d)...\n",
		fed.TotalNodes(), len(fed.Leaves), tiers, fanout)
	fed.PowerOnAll()
	fed.Advance(30 * time.Second)
	for _, leaf := range fed.Leaves {
		for i, n := range leaf.Sim.Nodes {
			n.SetLoad(float64(i%4) * 0.5)
		}
	}
	fed.Advance(dur)

	fmt.Printf("\n== root: whole-grid view ==\n%s\n", fed.Root.Server.HandleCtl("status"))
	fmt.Printf("== root: subtree aggregates (%s) ==\n", core.RootAggNode)
	for _, v := range fed.Root.Server.NodeValues(core.RootAggNode) {
		if !v.IsText {
			fmt.Printf("  %-28s %g\n", v.Name, v.Num)
		}
	}

	var up core.UplinkStats
	sessions := 0
	for _, lvl := range fed.Levels[:tiers-1] {
		for _, fs := range lvl {
			st := fs.Uplink.Stats()
			up.Frames += st.Frames
			up.Nodes += st.Nodes
			up.Bytes += st.Bytes
			sessions++
		}
	}
	in := fed.Root.Server.UplinkInStats()
	fmt.Printf("\nuplinks: %d sessions forwarded %d node sections in %d batch frames (%d B on the wire); root ingested %d frames, %d desyncs\n",
		sessions, up.Nodes, up.Frames, up.Bytes, in.Frames, in.Desyncs)
	return nil
}

// runCluster boots a simulated cluster, injects a little life, and prints
// the monitoring screen plus event activity.
func runCluster(nodes int, dur time.Duration) error {
	sim, err := core.NewSim(core.SimConfig{Nodes: nodes, Cluster: "cwxsim"})
	if err != nil {
		return err
	}
	defer sim.Stop()

	// The standard protective rule set.
	rules := []events.Rule{
		{Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85, Action: events.ActPowerOff, Notify: true},
		{Name: "fan-failure", Metric: "hw.fan.ok", Op: events.LT, Threshold: 1, Sustain: 2, Notify: true},
		{Name: "swap-storm", Metric: "swap.used.pct", Op: events.GT, Threshold: 90, Notify: true},
	}
	for _, r := range rules {
		if err := sim.Server.Engine().AddRule(r); err != nil {
			return err
		}
	}

	fmt.Printf("powering on %d nodes across %d ICE boxes (sequenced)...\n", nodes, len(sim.Boxes))
	sim.PowerOnAll()
	sim.Advance(30 * time.Second)

	// Offer a mixed workload and one fault for the engine to catch.
	for i, n := range sim.Nodes {
		n.SetLoad(float64(i%4) * 0.5)
	}
	if nodes > 2 {
		sim.Nodes[2].SetLoad(1)
		sim.Advance(2 * time.Minute)
		sim.Nodes[2].FailFan()
	}
	sim.Advance(dur)

	fmt.Printf("\n%s\n", sim.Server.HandleCtl("status"))
	fmt.Printf("\n%s\n", sim.Server.HandleCtl("efficiency"))
	fmt.Printf("\n%s\n", sim.Server.HandleCtl("eventlog"))
	st := serve.ReadStats()
	fmt.Printf("\nserving plane: %d hits, %d rebuilds, %d coalesced\n", st.Hits, st.Misses, st.Coalesced)
	fj := flight.Default()
	fmt.Printf("flight recorder: %d records journaled (ring retains %d); newest:\n", fj.Cursor(), flight.Capacity())
	fmt.Print(dashboard.FlightPanel(fj.Since(0, 5)))
	if sim.Mailer != nil {
		fmt.Printf("\nnotifications sent: %d\n", sim.Mailer.Count())
		for _, m := range sim.Mailer.Messages() {
			fmt.Printf("--- %s\n%s\n", m.Subject, m.Body)
		}
	}
	return nil
}
