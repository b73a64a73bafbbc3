package core

import (
	"encoding/binary"
	"testing"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/transmit"
)

// FuzzWireSession drives wireServer.handle, the session state machine
// every agent connection and child uplink runs on the server, with
// multi-payload sequences into one session on a fresh server. An input
// is a run of uvarint-length-prefixed payloads (a short last payload is
// truncated to what remains), so one input can interleave v2 frames,
// batch v2 frames, v1 text, control payloads and truncations.
//
// Invariants: no panic; any payload that is not v2 (single or batch) is
// fatal; every control reply the session owes parses as a known control
// payload; and the values of every node the server registered stay
// readable.
func FuzzWireSession(f *testing.F) {
	for _, seed := range wireSessionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(ServerConfig{Cluster: "fuzz"})
		ws := &wireServer{s: srv}
		send := func(ctl []byte) {
			if !knownControl(ctl) {
				t.Fatalf("session replied with unknown control payload %q", ctl)
			}
		}
		for len(data) > 0 {
			n, k := binary.Uvarint(data)
			if k <= 0 {
				break
			}
			data = data[k:]
			n = min(n, uint64(len(data)))
			p := data[:n]
			data = data[n:]
			if fatal := ws.handle(p, send); !fatal && !transmit.IsV2Payload(p) {
				t.Fatalf("non-v2 payload %q accepted", p)
			}
		}
		for _, name := range srv.NodeNames() {
			for _, v := range srv.NodeValues(name) {
				_ = v.Render()
			}
		}
	})
}

// knownControl reports whether a server→client payload is one of the
// session's control messages.
func knownControl(p []byte) bool {
	if _, ok := transmit.ParseResync(p); ok {
		return true
	}
	if _, ok := transmit.ParseDictAck(p); ok {
		return true
	}
	return transmit.IsWireReset(p) || transmit.IsUplinkResync(p)
}

// wireSessionSeeds records real session traffic as fuzz seeds: an agent
// session through wireClient (clean, with a lost frame, and with its
// first frame lost), an uplink session through BatchEncoderV2, and a
// mixed run with v1 text, control payloads and truncations.
func wireSessionSeeds() [][]byte {
	vals := func(load float64) []consolidate.Value {
		return []consolidate.Value{
			consolidate.NumValue("load.1", consolidate.Dynamic, load),
			consolidate.TextValue("cpu.type", consolidate.Static, "Pentium III"),
			consolidate.NumValue("mem.free", consolidate.Dynamic, 512-load),
		}
	}
	agent := func(node string) [][]byte {
		wc := newWireClient(node)
		var out [][]byte
		for seq := uint64(1); seq <= 5; seq++ {
			f := transmit.Frame{Node: node, Seq: seq, Values: vals(float64(seq)), SentNs: int64(seq) * 1e9}
			if seq == 1 || seq == 5 {
				f.Kind = transmit.FrameSnapshot
			}
			out = append(out, append([]byte(nil), wc.marshal(f)...))
		}
		return out
	}
	uplink := func() [][]byte {
		enc := transmit.NewBatchEncoderV2()
		var out [][]byte
		for seq := uint64(1); seq <= 3; seq++ {
			nodes := []transmit.Frame{
				{Node: "node001", Values: vals(float64(seq))},
				{Node: "rack/leaf0", Values: vals(float64(seq) * 2)},
			}
			if seq == 1 {
				nodes[0].Kind = transmit.FrameSnapshot
			}
			out = append(out, enc.Encode(nil, seq, int64(seq)*1e8, nodes))
		}
		return out
	}
	seq := func(payloads ...[]byte) []byte {
		var b []byte
		for _, p := range payloads {
			b = binary.AppendUvarint(b, uint64(len(p)))
			b = append(b, p...)
		}
		return b
	}
	a := agent("node001")
	u := uplink()
	v1 := transmit.MarshalFrame(nil, transmit.Frame{Node: "node042", Seq: 1, Values: vals(1)})
	return [][]byte{
		seq(a...),
		seq(a[0], a[1], a[3], a[4]), // frame 3 lost: desync, then the snapshot heals
		seq(a[1:]...),               // first frame lost: the dictionary tail resend recovers
		seq(u...),
		seq(u[0], u[2]), // batch 2 lost: link desync
		seq(a[0], u[0], a[1], u[1]),
		seq(v1),
		seq(a[0], []byte("!wack 3"), transmit.MarshalResync(nil, "node001"), a[1][:len(a[1])/2], a[2]),
		seq(u[0][:len(u[0])/2], u[1], nil),
	}
}
