package agent

import (
	"time"

	"deepflow/internal/protocols"
	"deepflow/internal/selfmon"
	"deepflow/internal/trace"
)

// MessageEvent is one classified message observed at a capture point —
// either a syscall (eBPF/uprobe) or a packet (cBPF/AF_PACKET). It is the
// "message data" of paper §3.3.1 after type inference.
type MessageEvent struct {
	Source  trace.Source
	TapSide trace.TapSide
	Host    string

	// Flow identity. Socket is zero for packet taps; FlowKey then falls
	// back to the canonical tuple.
	Socket trace.SocketID
	Tuple  trace.FiveTuple // oriented in travel direction
	Seq    uint32

	Dir   trace.Direction
	Start time.Time
	End   time.Time

	// Program information (zero for packet taps).
	PID      uint32
	TID      uint32
	Coro     uint64
	ProcName string

	// NoThreadContext marks spans from event-loop proxies whose thread
	// identity is meaningless for causality; they skip systrace
	// assignment and rely on X-Request-IDs.
	NoThreadContext bool

	Payload []byte
	DataLen int
}

// WindowDuration is the session-aggregation time slot (paper §3.3.1:
// "DeepFlow presently sets the duration of each time slot to 60 seconds").
const WindowDuration = 60 * time.Second

// InferMaxTries caps protocol inference attempts per flow. A flow whose
// first messages match no codec almost never starts matching later; after
// this many misses the flow is marked given-up and the all-codec probe is
// retired (the per-message accounting stays).
const InferMaxTries = 8

// Sessionizer aggregates request and response messages of the same flow
// into sessions and emits one span per session. One Sessionizer serves one
// capture point (a kernel's syscall stream, or one NIC's packet stream).
//
// Feed has one path: a flow's protocol is inferred once, and after that
// the first syscall of every message gets exactly one Codec.Parse
// (paper §3.3.1); continuation syscalls only extend the open message.
type Sessionizer struct {
	ids    *trace.IDAllocator
	tracer *SysTracer // nil for packet taps (no thread context)
	table  *protocols.Table

	flows map[flowKey]*flowState

	// window is the time-window array bounding session aggregation and
	// expiry (paper §3.3.1).
	window *TimeWindow

	// Block allocators for the two per-session heap objects.
	spans spanArena
	reqs  reqArena

	// Emit receives completed spans.
	Emit func(*trace.Span)

	// Stats.
	Inferred     map[trace.L7Proto]int
	Unparsable   int
	OrphanResps  int
	InferGiveups int
	SlowPathMsgs int // messages given a full Parse: every non-continuation after inference
	FlowMsgs     uint64
	FlowBytes    uint64

	// FastPathHits is always 0: Feed has no header-only path. The field
	// stays because the standalone benchmark module reads it to report a
	// hit ratio.
	FastPathHits int

	// Self-monitoring (nil when uninstrumented; see instrument).
	mon       *selfmon.Registry
	capture   string
	mMiss     *selfmon.Counter
	mOrphans  *selfmon.Counter
	mEvict    *selfmon.Counter
	mGiveups  *selfmon.Counter
	mSlowMsgs *selfmon.Counter
}

type flowKey struct {
	sock   trace.SocketID
	tuple  trace.FiveTuple // canonical; used when sock == 0
	uprobe bool            // uprobe plaintext keeps separate state from TLS ciphertext
}

type flowState struct {
	codec    protocols.Codec
	inferTry int
	gaveUp   bool // inference retry budget exhausted

	// Traits cached at inference time so the per-message path never
	// consults the registry again.
	parallel bool
	isTLS    bool

	// Per-flow message metrics, updated for every message.
	msgs  uint64
	bytes uint64

	// Open requests: FIFO for pipeline protocols, by stream ID for
	// parallel protocols.
	fifo   []*openRequest
	byID   map[uint64]*openRequest
	lastRx *contState // ingress continuation
	lastTx *contState // egress continuation
}

type contState struct {
	remaining int
	req       *openRequest // message being extended (nil for responses)
	end       *time.Time
}

// arenaBlock is how many spans / open requests each arena block holds.
const arenaBlock = 256

// spanArena hands out spans from block allocations: one make() zeroes and
// allocates 256 spans at a time, amortizing the allocator and memclr work
// that otherwise dominates the per-message profile. Spans escape to the
// Emit callback and are garbage-collected per block once every span in it
// is dropped — fine for the agent, which encodes and releases spans
// promptly.
type spanArena struct{ buf []trace.Span }

func (a *spanArena) next() *trace.Span {
	if len(a.buf) == 0 {
		a.buf = make([]trace.Span, arenaBlock)
	}
	sp := &a.buf[0]
	a.buf = a.buf[1:]
	return sp
}

// reqArena is the same block allocator for open requests.
type reqArena struct{ buf []openRequest }

func (a *reqArena) next() *openRequest {
	if len(a.buf) == 0 {
		a.buf = make([]openRequest, arenaBlock)
	}
	r := &a.buf[0]
	a.buf = a.buf[1:]
	return r
}

type openRequest struct {
	ev       MessageEvent
	msg      protocols.Message
	systrace trace.SysTraceID
	pseudo   uint64
	slot     int64
	done     bool // matched or expired; lazily removed from queues
}

// NewSessionizer creates a sessionizer; tracer may be nil for packet
// streams, extra holds user-supplied protocol codecs (paper §3.3.1:
// "optional user-supplied protocol specifications"), registered through
// the codec table's Register API ahead of the builtins. When extra is
// empty the shared builtin table is used directly.
func NewSessionizer(ids *trace.IDAllocator, tracer *SysTracer, extra []protocols.Codec, emit func(*trace.Span)) *Sessionizer {
	table := protocols.Default()
	if len(extra) > 0 {
		table = protocols.NewTable()
		for _, c := range extra {
			table.Register(c)
		}
	}
	return &Sessionizer{
		ids:      ids,
		tracer:   tracer,
		table:    table,
		flows:    make(map[flowKey]*flowState),
		window:   NewTimeWindow(WindowDuration),
		Emit:     emit,
		Inferred: make(map[trace.L7Proto]int),
	}
}

// SetWindow replaces the session-aggregation slot duration. Call it before
// feeding any events; existing open requests are not re-slotted.
func (sz *Sessionizer) SetWindow(slotDur time.Duration) {
	sz.window = NewTimeWindow(slotDur)
}

// instrument registers this sessionizer's self-metrics under its capture
// point tag ("syscall" or "packet"): protocol-inference hits, misses, and
// give-ups, parsed-message counts, parse errors, orphan responses, window
// occupancy, and evictions.
func (sz *Sessionizer) instrument(mon *selfmon.Registry, capture string) {
	sz.mon = mon
	sz.capture = capture
	tag := selfmon.Tag{K: "capture", V: capture}
	sz.mMiss = mon.Counter("deepflow_agent_inference_misses", tag)
	sz.mOrphans = mon.Counter("deepflow_agent_orphan_responses", tag)
	sz.mEvict = mon.Counter("deepflow_agent_window_evictions", tag)
	sz.mGiveups = mon.Counter("deepflow_agent_inference_giveups", tag)
	sz.mSlowMsgs = mon.Counter("deepflow_agent_slowpath_messages", tag)
	mon.GaugeFunc("deepflow_agent_window_occupancy",
		func() float64 { return float64(sz.window.Len()) }, tag)
	mon.GaugeFunc("deepflow_agent_flow_messages",
		func() float64 { return float64(sz.FlowMsgs) }, tag)
	mon.GaugeFunc("deepflow_agent_flow_bytes",
		func() float64 { return float64(sz.FlowBytes) }, tag)
}

func (sz *Sessionizer) key(ev *MessageEvent) flowKey {
	if ev.Socket != 0 {
		return flowKey{sock: ev.Socket, uprobe: ev.Source == trace.SourceUProbe}
	}
	return flowKey{tuple: ev.Tuple.Canonical()}
}

// Feed processes one message event, possibly emitting a completed span.
//
// Flow-state fetch, flow-metric updates and continuation accounting run
// for every event. A continuation syscall stops there; any other message
// on an inferred flow is parsed once with the flow's codec and then opens
// a session (request) or closes one (response).
func (sz *Sessionizer) Feed(ev MessageEvent) {
	k := sz.key(&ev)
	fs := sz.flows[k]
	if fs == nil {
		fs = &flowState{byID: make(map[uint64]*openRequest)}
		sz.flows[k] = fs
	}

	// Flow metrics update on every path, including unparsable flows.
	fs.msgs++
	fs.bytes += uint64(ev.DataLen)
	sz.FlowMsgs++
	sz.FlowBytes += uint64(ev.DataLen)

	// Continuation syscalls of a long message extend it rather than
	// starting a new one (paper §3.3.1: "we only process the first system
	// call for a message").
	cont := fs.lastTx
	if ev.Dir == trace.DirIngress {
		cont = fs.lastRx
	}
	if cont != nil && cont.remaining > 0 {
		cont.remaining -= ev.DataLen
		if cont.end != nil {
			*cont.end = ev.End
		}
		return
	}

	// One-shot protocol inference per flow, retried until first success
	// within a capped budget: a flow that matched no codec for
	// InferMaxTries messages will not start matching later, so the
	// all-codec probe is retired and only the per-message accounting
	// remains.
	if fs.codec == nil {
		if fs.gaveUp {
			sz.Unparsable++
			if sz.mMiss != nil {
				sz.mMiss.Inc()
			}
			return
		}
		entry := sz.table.InferEntry(ev.Payload)
		if entry == nil {
			fs.inferTry++
			sz.Unparsable++
			if sz.mMiss != nil {
				sz.mMiss.Inc()
			}
			if fs.inferTry >= InferMaxTries {
				fs.gaveUp = true
				sz.InferGiveups++
				if sz.mGiveups != nil {
					sz.mGiveups.Inc()
				}
			}
			return
		}
		fs.codec = entry.Codec
		fs.parallel = entry.Traits.Parallel
		fs.isTLS = entry.Codec.Proto() == trace.L7TLS
		sz.Inferred[fs.codec.Proto()]++
		if sz.mon != nil {
			sz.mon.Counter("deepflow_agent_inference_hits",
				selfmon.Tag{K: "capture", V: sz.capture},
				selfmon.Tag{K: "proto", V: fs.codec.Proto().String()}).Inc()
		}
	}
	// Encrypted flows carry no parseable syscall payloads; their spans
	// come from the uprobe plaintext stream instead.
	if fs.isTLS {
		return
	}

	sz.SlowPathMsgs++
	if sz.mSlowMsgs != nil {
		sz.mSlowMsgs.Inc()
	}
	msg, err := fs.codec.Parse(ev.Payload)
	if err != nil {
		sz.Unparsable++
		if sz.mon != nil {
			sz.mon.Counter("deepflow_agent_parse_errors",
				selfmon.Tag{K: "capture", V: sz.capture},
				selfmon.Tag{K: "proto", V: fs.codec.Proto().String()}).Inc()
		}
		return
	}

	switch msg.Type {
	case trace.MsgRequest:
		sz.feedRequest(fs, ev, msg)
	case trace.MsgResponse:
		sz.feedResponse(fs, ev, msg)
	}
}

func (sz *Sessionizer) feedRequest(fs *flowState, ev MessageEvent, msg protocols.Message) {
	req := sz.reqs.next()
	req.ev, req.msg, req.slot = ev, msg, sz.slotOf(ev.Start)
	if sz.tracer != nil && !ev.NoThreadContext {
		req.systrace = sz.tracer.Observe(ev.PID, ev.TID, ev.Coro, ev.Socket, ev.Dir, msg.Type)
		req.pseudo = sz.tracer.PseudoThread(ev.Coro)
	}
	if msg.TotalLen > ev.DataLen {
		cs := &contState{remaining: msg.TotalLen - ev.DataLen, req: req, end: &req.ev.End}
		sz.setCont(fs, ev.Dir, cs)
	}
	if fs.parallel {
		fs.byID[msg.StreamID] = req
	} else {
		fs.fifo = append(fs.fifo, req)
	}
	sz.window.Add(req)
}

func (sz *Sessionizer) setCont(fs *flowState, dir trace.Direction, cs *contState) {
	if dir == trace.DirIngress {
		fs.lastRx = cs
	} else {
		fs.lastTx = cs
	}
}

func (sz *Sessionizer) feedResponse(fs *flowState, ev MessageEvent, msg protocols.Message) {
	if sz.tracer != nil && !ev.NoThreadContext {
		sz.tracer.Observe(ev.PID, ev.TID, ev.Coro, ev.Socket, ev.Dir, msg.Type)
	}
	var req *openRequest
	if fs.parallel {
		req = fs.byID[msg.StreamID]
		delete(fs.byID, msg.StreamID)
		if req != nil && req.done {
			req = nil // expired before the response arrived
		}
	} else {
		// Pop the oldest open request, skipping any already expired.
		for len(fs.fifo) > 0 {
			cand := fs.fifo[0]
			fs.fifo = fs.fifo[1:]
			if !cand.done {
				req = cand
				break
			}
		}
	}
	if msg.TotalLen > ev.DataLen {
		sz.setCont(fs, ev.Dir, &contState{remaining: msg.TotalLen - ev.DataLen})
	}
	if req == nil {
		sz.OrphanResps++
		if sz.mOrphans != nil {
			sz.mOrphans.Inc()
		}
		sz.emitSpan(nil, &ev, &msg)
		return
	}
	// Aggregation only within the same or adjacent window slot (paper
	// §3.3.1); responses beyond that mean the request already flushed.
	if !sz.window.Adjacent(req.slot, sz.slotOf(ev.Start)) {
		sz.OrphanResps++
		if sz.mOrphans != nil {
			sz.mOrphans.Inc()
		}
		sz.markTimeout(req)
		sz.emitSpan(nil, &ev, &msg)
		return
	}
	req.done = true
	sz.emitSpan(req, &ev, &msg)
}

func (sz *Sessionizer) slotOf(t time.Time) int64 { return sz.window.SlotOf(t) }

// emitSpan builds one span from a (request, response) session. Either side
// may be missing: a nil req yields an orphan-response span, a nil resp
// (via emitTimeout) a timeout span.
func (sz *Sessionizer) emitSpan(req *openRequest, respEv *MessageEvent, respMsg *protocols.Message) {
	sp := sz.spans.next()
	sp.ID = sz.ids.NextSpanID()

	if req != nil {
		ev, msg := &req.ev, &req.msg
		sp.Source = ev.Source
		sp.TapSide = ev.TapSide
		sp.HostName = ev.Host
		sp.Socket = ev.Socket
		sp.Flow = requestFlow(ev)
		sp.L7 = msg.Proto
		sp.StartTime = ev.Start
		sp.ReqTCPSeq = ev.Seq
		sp.PID, sp.TID, sp.CoroutineID, sp.ProcessName = ev.PID, ev.TID, ev.Coro, ev.ProcName
		sp.SysTraceID = req.systrace
		sp.PseudoThreadID = req.pseudo
		sp.RequestType = msg.Method
		sp.RequestResource = msg.Resource
		sp.XRequestID = msg.Header("x-request-id")
		if tp := msg.Header("traceparent"); tp != "" {
			tid, spanID := parseTraceparent(tp)
			sp.TraceID = tid
			sp.ParentSpanRef = spanID
		} else if b3 := msg.Header("b3"); b3 != "" {
			tid, spanID := parseB3(b3)
			sp.TraceID = tid
			sp.ParentSpanRef = spanID
		}
	}
	if respEv != nil {
		if req == nil {
			ev := respEv
			sp.Source = ev.Source
			sp.TapSide = ev.TapSide
			sp.HostName = ev.Host
			sp.Socket = ev.Socket
			sp.Flow = ev.Tuple.Reverse() // orient request-ward
			sp.L7 = respMsg.Proto
			sp.StartTime = ev.Start
			sp.PID, sp.TID, sp.CoroutineID, sp.ProcessName = ev.PID, ev.TID, ev.Coro, ev.ProcName
		}
		sp.EndTime = respEv.End
		sp.RespTCPSeq = respEv.Seq
		sp.ResponseCode = respMsg.Code
		sp.ResponseStatus = respMsg.Status
		// Proxies add X-Request-ID on the response path too; a session
		// whose request had none can still be associated through it.
		if sp.XRequestID == "" {
			sp.XRequestID = respMsg.Header("x-request-id")
		}
	}
	if sp.EndTime.IsZero() {
		sp.EndTime = sp.StartTime
	}
	sz.Emit(sp)
}

// requestFlow orients the span's flow client→server: the request travels
// toward the server, so the request tuple already points that way.
func requestFlow(ev *MessageEvent) trace.FiveTuple { return ev.Tuple }

// Flush emits timeout spans for requests older than two window slots by
// popping expired slots from the time-window array. Call it periodically
// and at shutdown.
func (sz *Sessionizer) Flush(now time.Time) {
	for _, req := range sz.window.Expire(now) {
		sz.markTimeout(req)
	}
}

func (sz *Sessionizer) markTimeout(req *openRequest) {
	req.done = true
	if sz.mEvict != nil {
		sz.mEvict.Inc()
	}
	old := sz.Emit
	sz.Emit = func(s *trace.Span) {
		s.ResponseStatus = "timeout"
		old(s)
	}
	sz.emitSpan(req, nil, nil)
	sz.Emit = old
}

// FlushAll emits timeout spans for every open request regardless of age.
func (sz *Sessionizer) FlushAll() {
	for _, req := range sz.window.Drain() {
		sz.markTimeout(req)
	}
	for _, fs := range sz.flows {
		fs.fifo = nil
		for id := range fs.byID {
			delete(fs.byID, id)
		}
	}
}

// parseTraceparent extracts (trace id, span id) from a W3C traceparent
// header: "00-<32 hex>-<16 hex>-<flags>".
func parseTraceparent(v string) (traceID, spanID string) {
	parts := splitDash(v)
	if len(parts) >= 3 {
		return parts[1], parts[2]
	}
	return "", ""
}

// parseB3 extracts (trace id, span id) from a single-header B3 value:
// "<traceid>-<spanid>-<sampled>".
func parseB3(v string) (traceID, spanID string) {
	parts := splitDash(v)
	if len(parts) >= 2 {
		return parts[0], parts[1]
	}
	return "", ""
}

func splitDash(v string) []string {
	var out []string
	start := 0
	for i := 0; i < len(v); i++ {
		if v[i] == '-' {
			out = append(out, v[start:i])
			start = i + 1
		}
	}
	return append(out, v[start:])
}
