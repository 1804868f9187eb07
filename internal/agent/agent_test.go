package agent

import (
	"testing"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/protocols"
	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// collectSink is the decoding collector: it decodes every shipped wire
// batch and accumulates the rows, so tests assert on what actually crossed
// the agent→server seam. Rows appear only after the agent flushes.
type collectSink struct {
	spans    []*trace.Span
	flows    []FlowSample
	profiles []profiling.Sample
}

func (m *collectSink) IngestBatch(data []byte) error {
	b, err := transport.Decode(data)
	if err != nil {
		return err
	}
	m.spans = append(m.spans, b.Spans...)
	m.flows = append(m.flows, b.Flows...)
	m.profiles = append(m.profiles, b.Profiles...)
	return nil
}

func (m *collectSink) byTap(side trace.TapSide) []*trace.Span {
	var out []*trace.Span
	for _, s := range m.spans {
		if s.TapSide == side {
			out = append(out, s)
		}
	}
	return out
}

// rig is a two-pod topology with agents on the pods and the client node.
type rig struct {
	eng        *sim.Engine
	net        *simnet.Network
	nodeA      *simnet.Host
	nodeB      *simnet.Host
	podC, podS *simnet.Host
	sink       *collectSink
	agents     []*Agent
}

func newRig(t *testing.T, mode Mode) *rig {
	t.Helper()
	eng := sim.NewEngine(3)
	net := simnet.NewNetwork(eng, &trace.IDAllocator{})
	nodeA := net.AddHost("node-a", simnet.KindNode, nil)
	nodeB := net.AddHost("node-b", simnet.KindNode, nil)
	podC := net.AddHost("pod-client", simnet.KindPod, nodeA)
	podS := net.AddHost("pod-server", simnet.KindPod, nodeB)
	r := &rig{eng: eng, net: net, nodeA: nodeA, nodeB: nodeB, podC: podC, podS: podS, sink: &collectSink{}}
	for _, h := range []*simnet.Host{podC, podS, nodeA, nodeB} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.EnableUprobe = true
		cfg.VPCID = 7
		ag, err := New(h, cfg, r.sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := ag.Start(); err != nil {
			t.Fatal(err)
		}
		r.agents = append(r.agents, ag)
	}
	return r
}

func (r *rig) flushAll() {
	for _, a := range r.agents {
		a.FlushAll()
	}
}

// httpServer runs a one-thread HTTP server on pod-server that optionally
// calls a downstream handler before responding.
func (r *rig) httpServer(t *testing.T, port uint16, handle func(req protocols.Message, reply func(code int))) {
	t.Helper()
	proc := r.podS.Kernel.NewProcess("http-srv")
	_, err := r.net.Listen(r.podS, port, proc, simkernel.DefaultABIProfile, func(sock *simkernel.Socket, conn *simnet.Conn) {
		th := proc.Threads()[0]
		var loop func()
		loop = func() {
			r.podS.Kernel.Read(th, sock, func(d simkernel.Delivered) {
				if d.Err != nil || len(d.Payload) == 0 {
					return
				}
				msg, err := protocols.HTTPCodec{}.Parse(d.Payload)
				if err != nil {
					t.Errorf("server parse: %v", err)
					return
				}
				handle(msg, func(code int) {
					r.podS.Kernel.Send(th, sock, protocols.EncodeHTTPResponse(code, nil, 32), nil)
					loop()
				})
			})
		}
		loop()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// httpGet dials and performs count sequential GETs from pod-client.
func (r *rig) httpGet(t *testing.T, port uint16, path string, count int, headers map[string]string) {
	t.Helper()
	proc := r.podC.Kernel.NewProcess("client")
	th := proc.Threads()[0]
	r.net.Dial(r.podC, proc, simkernel.DefaultABIProfile, r.podS.IP, port, func(sock *simkernel.Socket, conn *simnet.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		var round func(i int)
		round = func(i int) {
			if i >= count {
				return
			}
			r.podC.Kernel.Send(th, sock, protocols.EncodeHTTPRequest("GET", path, headers, 8), nil)
			r.podC.Kernel.Read(th, sock, func(d simkernel.Delivered) { round(i + 1) })
		}
		round(0)
	})
}

func TestEndToEndHTTPSpans(t *testing.T) {
	r := newRig(t, ModeFull)
	r.httpServer(t, 80, func(req protocols.Message, reply func(int)) { reply(200) })
	r.httpGet(t, 80, "/api/items", 1, map[string]string{"X-Request-Id": "rq-1"})
	r.eng.RunAll()
	r.flushAll()

	cs := r.sink.byTap(trace.TapClientProcess)
	ss := r.sink.byTap(trace.TapServerProcess)
	if len(cs) != 1 || len(ss) != 1 {
		t.Fatalf("client spans = %d, server spans = %d, want 1/1 (all: %v)", len(cs), len(ss), r.sink.spans)
	}
	c, s := cs[0], ss[0]
	if c.L7 != trace.L7HTTP || c.RequestType != "GET" || c.RequestResource != "/api/items" {
		t.Fatalf("client span = %+v", c)
	}
	if c.ResponseCode != 200 || c.ResponseStatus != "ok" {
		t.Fatalf("client response = %d %s", c.ResponseCode, c.ResponseStatus)
	}
	if c.XRequestID != "rq-1" || s.XRequestID != "rq-1" {
		t.Fatalf("x-request-id: client %q server %q", c.XRequestID, s.XRequestID)
	}
	// Inter-component association: TCP sequences match across sides.
	if c.ReqTCPSeq != s.ReqTCPSeq || c.RespTCPSeq != s.RespTCPSeq {
		t.Fatalf("tcp seqs: client %d/%d server %d/%d", c.ReqTCPSeq, c.RespTCPSeq, s.ReqTCPSeq, s.RespTCPSeq)
	}
	// The client span encloses the server span in time.
	if s.StartTime.Before(c.StartTime) || s.EndTime.After(c.EndTime) {
		t.Fatalf("server span [%v,%v] not inside client span [%v,%v]",
			s.StartTime, s.EndTime, c.StartTime, c.EndTime)
	}
	// Both processes got distinct systrace chains.
	if c.SysTraceID == 0 || s.SysTraceID == 0 || c.SysTraceID == s.SysTraceID {
		t.Fatalf("systrace ids: client %d server %d", c.SysTraceID, s.SysTraceID)
	}
	// Packet spans were captured at pod NICs and node NICs.
	if nic := r.sink.byTap(trace.TapClientNIC); len(nic) != 1 {
		t.Fatalf("client NIC spans = %d", len(nic))
	}
	if nic := r.sink.byTap(trace.TapServerNIC); len(nic) != 1 {
		t.Fatalf("server NIC spans = %d", len(nic))
	}
	if nodes := r.sink.byTap(trace.TapClientNode); len(nodes) != 1 {
		t.Fatalf("client node spans = %d", len(nodes))
	}
	for _, sp := range r.sink.spans {
		if sp.ReqTCPSeq != c.ReqTCPSeq {
			t.Fatalf("span %v has different req seq %d", sp, sp.ReqTCPSeq)
		}
		if sp.Resource.VPCID != 7 || sp.Resource.IP == 0 {
			t.Fatalf("smart-encoding tags missing on %v: %+v", sp, sp.Resource)
		}
	}
}

func TestEBPFOnlyModeEmitsNoSpans(t *testing.T) {
	r := newRig(t, ModeEBPFOnly)
	r.httpServer(t, 80, func(req protocols.Message, reply func(int)) { reply(200) })
	r.httpGet(t, 80, "/", 3, nil)
	r.eng.RunAll()
	r.flushAll()
	if len(r.sink.spans) != 0 {
		t.Fatalf("eBPF-only mode emitted %d spans", len(r.sink.spans))
	}
	// But the kernel plane did run.
	if r.agents[0].Progs.VM.InstCount == 0 {
		t.Fatal("hook programs never executed")
	}
}

func TestServerFanOutSharesSystrace(t *testing.T) {
	r := newRig(t, ModeFull)

	// Backend on pod-server:81.
	backend := r.podS.Kernel.NewProcess("backend")
	r.net.Listen(r.podS, 81, backend, simkernel.DefaultABIProfile, func(sock *simkernel.Socket, conn *simnet.Conn) {
		th := backend.Threads()[0]
		var loop func()
		loop = func() {
			r.podS.Kernel.Read(th, sock, func(d simkernel.Delivered) {
				if d.Err != nil || len(d.Payload) == 0 {
					return
				}
				r.podS.Kernel.Send(th, sock, protocols.EncodeHTTPResponse(200, nil, 4), nil)
				loop()
			})
		}
		loop()
	})

	// Frontend on pod-server:80 calls the backend before replying.
	front := r.podS.Kernel.NewProcess("frontend")
	fth := front.Threads()[0]
	r.net.Listen(r.podS, 80, front, simkernel.DefaultABIProfile, func(sock *simkernel.Socket, conn *simnet.Conn) {
		var loop func()
		loop = func() {
			r.podS.Kernel.Read(fth, sock, func(d simkernel.Delivered) {
				if d.Err != nil || len(d.Payload) == 0 {
					return
				}
				r.net.Dial(r.podS, front, simkernel.DefaultABIProfile, r.podS.IP, 81, func(bs *simkernel.Socket, _ *simnet.Conn, err error) {
					if err != nil {
						t.Errorf("backend dial: %v", err)
						return
					}
					r.podS.Kernel.Send(fth, bs, protocols.EncodeHTTPRequest("GET", "/backend", nil, 0), nil)
					r.podS.Kernel.Read(fth, bs, func(simkernel.Delivered) {
						r.podS.Kernel.Send(fth, sock, protocols.EncodeHTTPResponse(200, nil, 8), nil)
						loop()
					})
				})
			})
		}
		loop()
	})

	r.httpGet(t, 80, "/front", 1, nil)
	r.eng.RunAll()
	r.flushAll()

	var frontServer, backendClient *trace.Span
	for _, sp := range r.sink.spans {
		if sp.Source != trace.SourceEBPF {
			continue
		}
		if sp.TapSide == trace.TapServerProcess && sp.RequestResource == "/front" {
			frontServer = sp
		}
		if sp.TapSide == trace.TapClientProcess && sp.RequestResource == "/backend" {
			backendClient = sp
		}
	}
	if frontServer == nil || backendClient == nil {
		t.Fatalf("missing spans: frontServer=%v backendClient=%v", frontServer, backendClient)
	}
	if frontServer.SysTraceID != backendClient.SysTraceID {
		t.Fatalf("intra-component association broken: server chain %d, nested client %d",
			frontServer.SysTraceID, backendClient.SysTraceID)
	}
}

func TestContinuationSyscallsExtendSpan(t *testing.T) {
	r := newRig(t, ModeFull)
	proc := r.podS.Kernel.NewProcess("bulk-srv")
	r.net.Listen(r.podS, 80, proc, simkernel.DefaultABIProfile, func(sock *simkernel.Socket, conn *simnet.Conn) {
		th := proc.Threads()[0]
		reads := 0
		var loop func()
		loop = func() {
			r.podS.Kernel.Read(th, sock, func(d simkernel.Delivered) {
				if d.Err != nil || len(d.Payload) == 0 {
					return
				}
				reads++
				if reads == 2 { // got head + continuation
					r.podS.Kernel.Send(th, sock, protocols.EncodeHTTPResponse(200, nil, 4), nil)
				}
				loop()
			})
		}
		loop()
	})

	client := r.podC.Kernel.NewProcess("bulk-client")
	th := client.Threads()[0]
	full := protocols.EncodeHTTPRequest("POST", "/upload", nil, 4000)
	head, rest := full[:1000], full[1000:]
	r.net.Dial(r.podC, client, simkernel.DefaultABIProfile, r.podS.IP, 80, func(sock *simkernel.Socket, _ *simnet.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// The message is written with two syscalls; only the first should
		// open a span; the second extends it.
		r.podC.Kernel.Send(th, sock, head, func(int, error) {
			r.podC.Kernel.Send(th, sock, rest, nil)
		})
		r.podC.Kernel.Read(th, sock, func(simkernel.Delivered) {})
	})
	r.eng.RunAll()
	r.flushAll()

	cs := r.sink.byTap(trace.TapClientProcess)
	if len(cs) != 1 {
		t.Fatalf("client spans = %d, want 1 (continuation created extra spans?)", len(cs))
	}
	if cs[0].RequestResource != "/upload" || cs[0].ResponseCode != 200 {
		t.Fatalf("span = %+v", cs[0])
	}
}

func TestTimeoutSpanOnMissingResponse(t *testing.T) {
	r := newRig(t, ModeFull)
	proc := r.podS.Kernel.NewProcess("black-hole")
	r.net.Listen(r.podS, 80, proc, simkernel.DefaultABIProfile, func(sock *simkernel.Socket, conn *simnet.Conn) {
		th := proc.Threads()[0]
		r.podS.Kernel.Read(th, sock, func(simkernel.Delivered) {
			// Never respond: unexpected execution termination.
		})
	})
	r.httpGet(t, 80, "/hang", 1, nil)
	r.eng.RunAll()
	// Flush far in the future so the open request expires.
	for _, a := range r.agents {
		a.Flush(sim.Epoch.Add(10 * time.Minute))
	}
	var timeouts int
	for _, sp := range r.sink.spans {
		if sp.ResponseStatus == "timeout" && sp.TapSide == trace.TapClientProcess {
			timeouts++
			if sp.RequestResource != "/hang" {
				t.Fatalf("timeout span = %+v", sp)
			}
		}
	}
	if timeouts != 1 {
		t.Fatalf("timeout client spans = %d, want 1", timeouts)
	}
}

func TestParallelProtocolOutOfOrderMatching(t *testing.T) {
	r := newRig(t, ModeFull)
	proc := r.podS.Kernel.NewProcess("dubbo-srv")
	// Server that answers request 2 before request 1.
	r.net.Listen(r.podS, 20880, proc, simkernel.DefaultABIProfile, func(sock *simkernel.Socket, conn *simnet.Conn) {
		th := proc.Threads()[0]
		var pendingIDs []uint64
		var loop func()
		loop = func() {
			r.podS.Kernel.Read(th, sock, func(d simkernel.Delivered) {
				if d.Err != nil || len(d.Payload) == 0 {
					return
				}
				msg, _ := protocols.DubboCodec{}.Parse(d.Payload)
				pendingIDs = append(pendingIDs, msg.StreamID)
				if len(pendingIDs) == 2 {
					// Reply in reverse order.
					r.podS.Kernel.Send(th, sock, protocols.EncodeDubboResponse(pendingIDs[1], protocols.DubboStatusOK, 8), nil)
					r.podS.Kernel.Send(th, sock, protocols.EncodeDubboResponse(pendingIDs[0], 50, 8), nil)
				}
				loop()
			})
		}
		loop()
	})

	client := r.podC.Kernel.NewProcess("dubbo-client")
	th := client.Threads()[0]
	r.net.Dial(r.podC, client, simkernel.DefaultABIProfile, r.podS.IP, 20880, func(sock *simkernel.Socket, _ *simnet.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		r.podC.Kernel.Send(th, sock, protocols.EncodeDubboRequest(101, "OrderSvc", "get", 16), nil)
		r.podC.Kernel.Send(th, sock, protocols.EncodeDubboRequest(102, "OrderSvc", "list", 16), nil)
		r.podC.Kernel.Read(th, sock, func(simkernel.Delivered) {
			r.podC.Kernel.Read(th, sock, func(simkernel.Delivered) {})
		})
	})
	r.eng.RunAll()
	r.flushAll()

	var get, list *trace.Span
	for _, sp := range r.sink.byTap(trace.TapClientProcess) {
		switch sp.RequestType {
		case "get":
			get = sp
		case "list":
			list = sp
		}
	}
	if get == nil || list == nil {
		t.Fatalf("dubbo spans missing: %v", r.sink.spans)
	}
	// Request 101 (get) got the error reply, 102 (list) the OK reply,
	// despite arrival order being reversed.
	if get.ResponseStatus != "error" || get.ResponseCode != 50 {
		t.Fatalf("get span = %+v", get)
	}
	if list.ResponseStatus != "ok" {
		t.Fatalf("list span = %+v", list)
	}
}

func TestFlowMetricsAttachedOnLoss(t *testing.T) {
	r := newRig(t, ModeFull)
	r.nodeA.UplinkLoss = 0.5
	r.httpServer(t, 80, func(req protocols.Message, reply func(int)) { reply(200) })
	r.httpGet(t, 80, "/big", 20, nil)
	r.eng.RunAll()
	r.flushAll()

	var retransSeen bool
	for _, f := range r.sink.flows {
		if f.Delta.Retransmissions > 0 {
			retransSeen = true
		}
	}
	if !retransSeen {
		t.Fatal("no flow sample recorded retransmissions despite 50% loss")
	}
	// NIC spans on the lossy side carry the retransmission metric.
	var spanWithRetrans bool
	for _, sp := range r.sink.spans {
		if sp.Source == trace.SourcePacket && sp.Net.Retransmissions > 0 {
			spanWithRetrans = true
		}
	}
	if !spanWithRetrans {
		t.Fatal("no packet span carries retransmission metrics")
	}
}

func TestOTelIngest(t *testing.T) {
	r := newRig(t, ModeFull)
	sp := &trace.Span{TraceID: "abc123", SpanRef: "s1", RequestResource: "/app-span"}
	r.agents[0].IngestOTel(sp)
	r.flushAll()
	if len(r.sink.spans) != 1 {
		t.Fatal("otel span not ingested")
	}
	got := r.sink.spans[0]
	if got.Source != trace.SourceOTel || got.TapSide != trace.TapApp || got.HostName == "" {
		t.Fatalf("otel span = %+v", got)
	}
}

func TestAgentStopDetaches(t *testing.T) {
	r := newRig(t, ModeFull)
	r.httpServer(t, 80, func(req protocols.Message, reply func(int)) { reply(200) })
	for _, a := range r.agents {
		a.Stop()
	}
	r.httpGet(t, 80, "/", 2, nil)
	r.eng.RunAll()
	r.flushAll()
	if len(r.sink.spans) != 0 {
		t.Fatalf("stopped agents emitted %d spans", len(r.sink.spans))
	}
	if r.podC.Kernel.HookCost != 0 {
		t.Fatal("hook cost not reset on stop")
	}
}

func TestTraceparentExtraction(t *testing.T) {
	r := newRig(t, ModeFull)
	r.httpServer(t, 80, func(req protocols.Message, reply func(int)) { reply(200) })
	r.httpGet(t, 80, "/traced", 1, map[string]string{
		"Traceparent": "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	})
	r.eng.RunAll()
	r.flushAll()
	cs := r.sink.byTap(trace.TapClientProcess)
	if len(cs) != 1 {
		t.Fatalf("spans = %d", len(cs))
	}
	if cs[0].TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || cs[0].ParentSpanRef != "00f067aa0ba902b7" {
		t.Fatalf("trace context = %q / %q", cs[0].TraceID, cs[0].ParentSpanRef)
	}
}
