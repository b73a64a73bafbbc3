package core

import (
	"strings"
	"sync"

	"clusterworx/internal/flight"
	"clusterworx/internal/transmit"
)

// This file is the session layer of the v2 wire protocol (see
// internal/transmit/framev2.go for the format): wireClient rides inside
// the agent-side transports (AgentConn over TCP, the simnet SendFrame
// closures), wireServer inside the server-side receive loops. Both the
// real socket path and the simulated fabric share these, so the
// fault-injection harness exercises the exact state machine production
// runs. Every session speaks v2 from its first frame.

// wireClient is one agent connection's v2 encoder. marshal runs on the
// agent's clock goroutine; control on the transport's receive goroutine
// — hence the mutex.
type wireClient struct {
	mu  sync.Mutex //cwx:lockrank wire 8
	enc *transmit.EncoderV2
	buf []byte // marshal scratch
	sym flight.Sym
}

// newWireClient builds the session state. node may be empty for
// transports that learn it from the first frame (TCP dial).
func newWireClient(node string) *wireClient {
	c := &wireClient{enc: transmit.NewEncoderV2()}
	if node != "" {
		c.sym = fjournal.Sym(node)
	}
	return c
}

// marshal encodes f into an internal scratch buffer, valid until the
// next call.
func (c *wireClient) marshal(f transmit.Frame) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sym == 0 {
		c.sym = fjournal.Sym(f.Node)
	}
	c.buf = c.enc.Encode(c.buf[:0], f)
	return c.buf
}

// sendFailed tells the encoder the receiver may not have seen the last
// frame: the next one must carry a chain reset so it decodes regardless.
func (c *wireClient) sendFailed() {
	c.mu.Lock()
	c.enc.Rebase()
	c.mu.Unlock()
}

// control dispatches one server→agent control payload: dictionary acks
// and dictionary resets are consumed here; resync reports whether the
// payload was a resync request the agent loop must act on. nowNs
// timestamps the journal records (0 when the transport has no clock,
// like the TCP reader goroutine).
func (c *wireClient) control(payload []byte, nowNs int64) (resync bool) {
	if _, ok := transmit.ParseResync(payload); ok {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if transmit.IsWireReset(payload) {
		c.enc.ResetTable()
		fjournal.Append(int(c.sym), flight.Entry{Kind: flight.KindWireReset, Node: c.sym, TimeNs: nowNs})
	} else if n, ok := transmit.ParseDictAck(payload); ok {
		c.enc.Ack(n)
	}
	return false
}

// wireServer is one agent session's server-side receive state: the v2
// decoder (lazily built on the first v2 payload) plus the control
// back-channel. Not safe for concurrent use — one per TCP connection or
// per datagram source.
type wireServer struct {
	s   *Server
	dec *transmit.DecoderV2
	ctl []byte // control marshal scratch

	// Batch uplink ingest state (federation: this server as the parent
	// side of a child tier's uplink). The emit closure is bound once so
	// the steady-state decode path allocates nothing.
	bdec   *transmit.BatchDecoderV2
	bemit  func(transmit.Frame)
	bnodes int // sub-frames in the current batch
	braw   int // of those, raw (non-aggregate) nodes
}

// handle processes one arriving frame payload: decode, ingest through
// the sequenced machinery, and emit whatever control traffic the session
// owes (dict acks and resets, resync requests). send ships a control
// payload back to the agent; the payload is scratch-backed and must be
// consumed (or copied) synchronously. fatal reports a protocol
// violation — any payload that is neither a v2 frame nor a v2 batch —
// after which the transport should drop the session.
func (ws *wireServer) handle(payload []byte, send func([]byte)) (fatal bool) {
	if transmit.IsV2BatchPayload(payload) {
		// Checked before the single-frame v2 path: a batch payload is a
		// v2 payload with an extra flag bit the single decoder rejects.
		return ws.handleBatch(payload, send)
	}
	if !transmit.IsV2Payload(payload) {
		return true
	}
	if ws.dec == nil {
		ws.dec = transmit.NewDecoderV2()
	}
	f, err := ws.dec.Decode(payload)
	switch err {
	case nil:
	case transmit.ErrV2Desync:
		// Header-only frame: the predictor chain broke on a lost
		// frame. The seq still feeds HandleFrame below, so the
		// gap→diverge→resync flow runs unchanged and the healing
		// snapshot (a chain-reset frame) fixes both layers at once.
	case transmit.ErrV2NeedReset:
		fjournal.Append(0, flight.Entry{Kind: flight.KindWireReset, TimeNs: int64(ws.s.now())})
		ws.ctl = transmit.MarshalWireReset(ws.ctl[:0])
		send(ws.ctl)
		return false
	default:
		return true
	}
	if n, ok := ws.dec.PendingAck(); ok {
		ws.ctl = transmit.MarshalDictAck(ws.ctl[:0], n)
		send(ws.ctl)
	}
	if err := ws.s.HandleFrame(f); err == ErrResyncNeeded {
		ws.ctl = transmit.MarshalResync(ws.ctl[:0], f.Node)
		send(ws.ctl)
	}
	return false
}

// initBatch builds the lazy batch-ingest state (kept out of the hot
// decode path so its one-time allocations never land there).
func (ws *wireServer) initBatch() {
	ws.bdec = transmit.NewBatchDecoderV2()
	ws.bemit = func(f transmit.Frame) {
		ws.bnodes++
		if strings.IndexByte(f.Node, '/') < 0 {
			ws.braw++
		}
		// Sub-frames are unsequenced (Seq 0 — continuity is link-level),
		// so HandleFrame never requests a per-node resync here.
		ws.s.HandleFrame(f) //nolint:errcheck
	}
}

// handleBatch ingests one uplink batch frame from a child tier. The
// all-or-nothing decode contract keeps recovery simple: a chain break
// emits nothing and the "!uresync" answer makes the child snap-all, so
// partial batches never need unwinding.
//
//cwx:hotpath
func (ws *wireServer) handleBatch(payload []byte, send func([]byte)) (fatal bool) {
	if ws.bdec == nil {
		ws.initBatch() //cwx:allow staticalloc -- inlined one-time session setup (decoder + emit closure); every later frame takes the non-nil path
	}
	ws.bnodes, ws.braw = 0, 0
	_, err := ws.bdec.Decode(payload, ws.bemit)
	switch err {
	case nil:
		ws.s.upIn.frames.Add(1)
		ws.s.upIn.nodes.Add(int64(ws.bnodes))
		ws.s.upIn.rawNodes.Add(int64(ws.braw))
		mUplinkInFrames.Inc()
		mUplinkInNodes.Add(int64(ws.bnodes))
	case transmit.ErrV2Desync:
		// A lost batch broke the link chain; nothing was emitted. The
		// "!uresync" answer makes the child rebase and forward full state
		// for every node, healing all suppressed deltas in one round trip.
		ws.s.upIn.desyncs.Add(1)
		mUplinkInDesyncs.Inc()
		fjournal.Append(0, flight.Entry{Kind: flight.KindUplinkResync, TimeNs: int64(ws.s.now())})
		ws.ctl = transmit.MarshalUplinkResync(ws.ctl[:0])
		send(ws.ctl)
	case transmit.ErrV2NeedReset:
		// The child's dictionary references entries this (restarted)
		// server never saw: ask for a full table resend.
		ws.s.upIn.resets.Add(1)
		fjournal.Append(0, flight.Entry{Kind: flight.KindWireReset, TimeNs: int64(ws.s.now())})
		ws.ctl = transmit.MarshalWireReset(ws.ctl[:0])
		send(ws.ctl)
	default:
		return true
	}
	if n, ok := ws.bdec.PendingAck(); ok {
		ws.ctl = transmit.MarshalDictAck(ws.ctl[:0], n)
		send(ws.ctl)
	}
	return false
}
