package core

import (
	"net"
	"sync"
	"testing"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/transmit"
)

// recListener records accepted connections so the test can sever them —
// the "parent dropped us" fault the uplink client must heal by
// redialing with a fresh session.
type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (r *recListener) Accept() (net.Conn, error) {
	c, err := r.Listener.Accept()
	if err == nil {
		r.mu.Lock()
		r.conns = append(r.conns, c)
		r.mu.Unlock()
	}
	return c, err
}

func (r *recListener) killAll() {
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = r.conns[:0]
	r.mu.Unlock()
}

// TestUplinkOverTCP federates two servers over a real socket: the child
// ingests a frame, the uplink client batches it upstream, the parent
// mirror converges, and a severed connection heals through redial +
// session restart (anti-entropy covers the write that died in the
// socket buffer).
func TestUplinkOverTCP(t *testing.T) {
	parent := NewServer(ServerConfig{Cluster: "parent"})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	l := &recListener{Listener: inner}
	go parent.ServeAgents(l) //nolint:errcheck // ends with listener

	child := NewServer(ServerConfig{Cluster: "child"})
	uc := StartUplink(child, UplinkClientConfig{
		Addr:        l.Addr().String(),
		Period:      10 * time.Millisecond,
		AntiEntropy: 100 * time.Millisecond,
		Rollup:      NewRollup(child, "rack/child", ""),
	})
	rootRoll := StartRollup(NewRollup(parent, "grid/root", "rack/"), 10*time.Millisecond)
	defer rootRoll.Close()

	vals := []consolidate.Value{consolidate.NumValue("load.1", consolidate.Dynamic, 0.25)}
	if err := child.HandleFrame(transmit.Frame{Node: "fednode", Seq: 1, Kind: transmit.FrameSnapshot, Values: vals}); err != nil {
		t.Fatal(err)
	}
	waitVal := func(want float64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if v, ok := parent.NodeValue("fednode", "load.1"); ok && v.Num == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("parent never converged to load.1 = %g", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitVal(0.25)
	// The daemon-path rollup chain: the child's rollup ticks with its
	// flush and publishes rack/child upstream; the parent's standalone
	// runner composes those mirrors into grid/root.
	waitFor("rack/child aggregate at parent", func() bool {
		v, ok := parent.NodeValue("rack/child", "load.1"+consolidate.RollupSum)
		return ok && v.Num == 0.25
	})
	waitFor("grid/root composed aggregate", func() bool {
		v, ok := parent.NodeValue("grid/root", "load.1"+consolidate.RollupSum)
		return ok && v.Num == 0.25
	})
	waitFor("first batch ingested", func() bool {
		st := parent.UplinkInStats()
		return st.Frames > 0 && st.RawNodes > 0
	})

	// Sever the parent-side connection, then change the value. The flush
	// that hits the dead socket re-marks (or dies silently in the send
	// buffer — the anti-entropy snap-all covers that case); the client
	// must redial, restart the session, and re-converge.
	l.killAll()
	vals[0].Num = 0.5
	if err := child.HandleFrame(transmit.Frame{Node: "fednode", Seq: 2, Kind: transmit.FrameDelta, Values: vals}); err != nil {
		t.Fatal(err)
	}
	waitVal(0.5)

	uc.Close()
	if child.UplinkSession() != nil {
		t.Fatal("Close left the uplink attached")
	}
}
