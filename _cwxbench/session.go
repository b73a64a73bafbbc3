package main

import (
	"bytes"
	"fmt"
	"strings"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/core"
	"clusterworx/internal/events"
	"clusterworx/internal/telemetry"
	"clusterworx/internal/transmit"
)

// session is one node's agent→server connection on the negotiated v2
// wire: encoder, a framed in-memory byte pipe, decoder. The dictionary
// ack travels back as soon as the decoder owes one, as on a socket.
type session struct {
	node string
	enc  *transmit.EncoderV2
	dec  *transmit.DecoderV2
	pipe bytes.Buffer
	w    *transmit.Writer
	r    *transmit.Reader
	buf  []byte
	seq  uint64
	span *telemetry.Span // the server's pipeline span for this node
}

func newSession(node string) *session {
	s := &session{node: node, enc: transmit.NewEncoderV2(), dec: transmit.NewDecoderV2(), span: telemetry.Spans.Slot(node)}
	s.w = transmit.NewWriter(&s.pipe, false)
	s.r = transmit.NewReader(&s.pipe)
	return s
}

// encode stamps the next sequence number on f and encodes it.
func (s *session) encode(f transmit.Frame, tr *tracer, sample int64) {
	s.seq++
	f.Node, f.Seq = s.node, s.seq
	id := tr.begin(spEncode, sample)
	s.buf = s.enc.Encode(s.buf[:0], f)
	tr.end(id)
}

// deliver frames the encoded payload onto the pipe, reads and decodes it
// on the server side and ingests it. It returns the bytes the frame
// took on the wire, header included.
func (s *session) deliver(srv *core.Server, tr *tracer, sample int64) (int64, error) {
	before := s.w.WireBytes()
	id := tr.begin(spFrame, sample)
	err := s.w.WriteFrameRaw(s.buf)
	var payload []byte
	if err == nil {
		payload, err = s.r.ReadFrame()
	}
	tr.end(id)
	wire := s.w.WireBytes() - before
	if err != nil {
		return wire, fmt.Errorf("%s: framing: %w", s.node, err)
	}
	id = tr.begin(spDecode, sample)
	f, err := s.dec.Decode(payload)
	if n, ok := s.dec.PendingAck(); ok {
		s.enc.Ack(n)
	}
	tr.end(id)
	if err != nil {
		return wire, fmt.Errorf("%s: v2 decode: %w", s.node, err)
	}
	id = tr.begin(spIngest, sample)
	err = srv.HandleFrame(f)
	tr.end(id)
	if tr != nil {
		// Split the HandleFrame span with the server's own stage
		// telemetry: record handling vs the events-engine dwell.
		snap := s.span.Snapshot()
		tr.add(sumIngestNs, float64(snap.Stages[telemetry.StageIngest].Dur))
		tr.add(sumEventsNs, float64(snap.Stages[telemetry.StageEvents].Dur))
		tr.add(sumIngestValues, float64(len(f.Values)))
		tr.add(sumTransmitBytes, float64(wire))
	}
	if err != nil {
		return wire, fmt.Errorf("%s: ingest seq %d: %w", s.node, f.Seq, err)
	}
	return wire, nil
}

// installDefaultRules arms the four protective rules cwxd installs when
// no rule file is given (cmd/cwxd installRules).
func installDefaultRules(srv *core.Server) error {
	for _, r := range []events.Rule{
		{Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85, Action: events.ActPowerOff, Notify: true},
		{Name: "fan-failure", Metric: "hw.fan.ok", Op: events.LT, Threshold: 1, Sustain: 2, Notify: true},
		{Name: "swap-storm", Metric: "swap.used.pct", Op: events.GT, Threshold: 90, Notify: true},
		{Name: "load-runaway", Metric: "load.1", Op: events.GT, Threshold: 50, Sustain: 5, Notify: true},
	} {
		if err := srv.Engine().AddRule(r); err != nil {
			return fmt.Errorf("rule %s: %w", r.Name, err)
		}
	}
	return nil
}

// render is the byte-exact form two value sets are compared in.
func render(vs []consolidate.Value) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Name)
		b.WriteByte('=')
		b.WriteString(v.Render())
		fmt.Fprintf(&b, " kind=%d text=%t\n", v.Kind, v.IsText)
	}
	return b.String()
}

// query issues one operator read through the serving plane and times
// it. An answer starting with ERR is a failed op.
func query(srv *core.Server, line, verb string, rec *recorder, tr *tracer) string {
	id := tr.begin(verbSpan(verb), 0)
	q0 := cpuNow()
	resp := srv.HandleCtl(line)
	rec.queryLat.add(cpuNow() - q0)
	tr.end(id)
	rec.queries++
	if strings.HasPrefix(resp, "ERR") {
		first, _, _ := strings.Cut(resp, "\n")
		rec.fail(fmt.Sprintf("%q answered %s", line, first))
	}
	return resp
}
