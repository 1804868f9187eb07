package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/cloud"
	"deepflow/internal/k8s"
	"deepflow/internal/sim"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

var ids trace.IDAllocator

func testRegistry(t *testing.T) (*ResourceRegistry, *k8s.Cluster, *cloud.Registry) {
	t.Helper()
	net := simnet.NewNetwork(sim.NewEngine(1), &trace.IDAllocator{})
	machine := net.AddHost("m1", simnet.KindMachine, nil)
	cluster := k8s.NewCluster("prod", net)
	node := cluster.AddNode("node-1", machine)
	if _, err := cluster.AddPod("frontend-0", "default", "frontend", node, map[string]string{"version": "v2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddPod("backend-0", "default", "backend", node, nil); err != nil {
		t.Fatal(err)
	}
	cl := cloud.NewRegistry()
	cl.Place("node-1", "us-east", "us-east-1a", "vpc-prod")
	return NewResourceRegistry([]*k8s.Cluster{cluster}, cl), cluster, cl
}

func TestEnrichAndDecode(t *testing.T) {
	reg, cluster, _ := testRegistry(t)
	pod := cluster.Pod("frontend-0")
	tags := reg.Enrich(trace.ResourceTags{IP: pod.IP})
	if tags.PodID == 0 || tags.NodeID == 0 || tags.ServiceID == 0 || tags.NSID == 0 {
		t.Fatalf("enrich = %+v", tags)
	}
	d := reg.Decode(tags)
	if d.Pod != "frontend-0" || d.Node != "node-1" || d.Service != "frontend" ||
		d.Namespace != "default" || d.Region != "us-east" || d.AZ != "us-east-1a" {
		t.Fatalf("decode = %+v", d)
	}
	if d.Labels["version"] != "v2" {
		t.Fatalf("labels = %v", d.Labels)
	}
	// Unknown IP: tags pass through unchanged.
	unknown := reg.Enrich(trace.ResourceTags{IP: 0xDEADBEEF, VPCID: 3})
	if unknown.PodID != 0 || unknown.VPCID != 3 {
		t.Fatalf("unknown enrich = %+v", unknown)
	}
}

// mkSpan builds a test span.
func mkSpan(opts func(*trace.Span)) *trace.Span {
	sp := &trace.Span{
		ID:        ids.NextSpanID(),
		Source:    trace.SourceEBPF,
		L7:        trace.L7HTTP,
		StartTime: sim.Epoch,
		EndTime:   sim.Epoch.Add(10 * time.Millisecond),
	}
	opts(sp)
	return sp
}

var flowAB = trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: trace.L4TCP}
var flowBC = trace.FiveTuple{SrcIP: 2, DstIP: 3, SrcPort: 2000, DstPort: 81, Proto: trace.L4TCP}

// buildPathSpans synthesizes the spans of one request A→B (through NIC and
// node taps) where B then calls C. Returns (clientA, spans...).
func buildPathSpans(reg *ResourceRegistry) []*trace.Span {
	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	win := func(sp *trace.Span, s, e int) { sp.StartTime, sp.EndTime = at(s), at(e) }
	sysB := trace.SysTraceID(7777)

	cA := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapClientProcess
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 100, 500
		sp.SysTraceID = 42
		win(sp, 0, 100)
	})
	cnic := mkSpan(func(sp *trace.Span) {
		sp.Source = trace.SourcePacket
		sp.TapSide = trace.TapClientNIC
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 100, 500
		win(sp, 2, 98)
	})
	snode := mkSpan(func(sp *trace.Span) {
		sp.Source = trace.SourcePacket
		sp.TapSide = trace.TapServerNode
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 100, 500
		win(sp, 4, 96)
	})
	sB := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapServerProcess
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 100, 500
		sp.SysTraceID = sysB
		win(sp, 6, 94)
	})
	cB := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapClientProcess
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowBC, 900, 950
		sp.SysTraceID = sysB
		win(sp, 20, 60)
	})
	sC := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapServerProcess
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowBC, 900, 950
		sp.SysTraceID = trace.SysTraceID(8888)
		win(sp, 25, 55)
	})
	return []*trace.Span{cA, cnic, snode, sB, cB, sC}
}

func TestAssembleFullPath(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	spans := buildPathSpans(reg)
	ingestSpans(t, srv, spans...)
	tr := srv.Trace(spans[0].ID) // start from client A span
	if tr == nil || tr.Len() != 6 {
		t.Fatalf("trace len = %v", tr)
	}

	parentOf := map[trace.SpanID]trace.SpanID{}
	for _, sp := range tr.Spans {
		parentOf[sp.ID] = sp.ParentID
	}
	cA, cnic, snode, sB, cB, sC := spans[0], spans[1], spans[2], spans[3], spans[4], spans[5]
	if parentOf[cA.ID] != 0 {
		t.Errorf("client A should be root, parent = %d", parentOf[cA.ID])
	}
	if parentOf[cnic.ID] != cA.ID {
		t.Errorf("c-nic parent = %d, want client A %d", parentOf[cnic.ID], cA.ID)
	}
	if parentOf[snode.ID] != cnic.ID {
		t.Errorf("s-node parent = %d, want c-nic %d", parentOf[snode.ID], cnic.ID)
	}
	if parentOf[sB.ID] != snode.ID {
		t.Errorf("server B parent = %d, want s-node %d", parentOf[sB.ID], snode.ID)
	}
	if parentOf[cB.ID] != sB.ID {
		t.Errorf("client B parent = %d, want server B %d (systrace rule)", parentOf[cB.ID], sB.ID)
	}
	if parentOf[sC.ID] != cB.ID {
		t.Errorf("server C parent = %d, want client B %d", parentOf[sC.ID], cB.ID)
	}
	if tr.Root == nil || tr.Root.ID != cA.ID {
		t.Errorf("root = %v", tr.Root)
	}
	if d := tr.Depth(); d != 6 {
		t.Errorf("depth = %d, want 6", d)
	}
	// Starting from any other span in the trace reaches the same set.
	tr2 := srv.Trace(sC.ID)
	if tr2.Len() != 6 {
		t.Errorf("assembly from leaf found %d spans", tr2.Len())
	}
}

func TestAssembleUnknownSpan(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	if tr := srv.Trace(9999999); tr != nil {
		t.Fatal("unknown span produced a trace")
	}
}

// TestAssembleIterationBound runs on the path production runs — the
// cross-partition search — at 1 and 2 shards, which must agree span for span
// at every bound.
func TestAssembleIterationBound(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv, srv2 := New(reg, EncodingSmart), NewSharded(reg, EncodingSmart, 0, 2)
	defer srv.Close()
	defer srv2.Close()
	// Chain of 40 spans linked pairwise by shared systrace ids:
	// span i has systrace i and x-request-id linking to i+1.
	var prev *trace.Span
	var first trace.SpanID
	var chain []*trace.Span
	for i := 0; i < 40; i++ {
		i := i
		sp := mkSpan(func(sp *trace.Span) {
			sp.TapSide = trace.TapServerProcess
			sp.SysTraceID = trace.SysTraceID(50000 + i)
			sp.XRequestID = "" // set below
		})
		if prev != nil {
			// Link via a shared X-Request-ID hop.
			link := mkSpan(func(l *trace.Span) {
				l.TapSide = trace.TapClientProcess
				l.SysTraceID = prev.SysTraceID
				l.XRequestID = "xr-" + string(rune('A'+i))
			})
			sp.XRequestID = link.XRequestID
			chain = append(chain, link)
		} else {
			first = sp.ID
		}
		chain = append(chain, sp)
		prev = sp
	}
	ingestSpans(t, srv, chain...)
	ingestSpans(t, srv2, chain...)
	// With 2 iterations, only a prefix of the chain is found; the default
	// 30 iterations reach further; 100 iterations find the whole chain
	// (each iteration expands one association hop).
	small := srv.Assemble(first, 2, AssocAll)
	deflt := srv.Assemble(first, DefaultIterations, AssocAll)
	full := srv.Assemble(first, 100, AssocAll)
	for _, iters := range []int{1, 2, 7, DefaultIterations, 100} {
		sameTrace(t, fmt.Sprintf("%d iterations", iters),
			srv.Assemble(first, iters, AssocAll), srv2.Assemble(first, iters, AssocAll))
	}
	if byDefault := srv.Assemble(first, 0, AssocAll); byDefault.Len() != deflt.Len() {
		t.Fatalf("iterations <= 0 found %d spans, the default bound %d", byDefault.Len(), deflt.Len())
	}
	if small.Len() >= deflt.Len() || deflt.Len() >= full.Len() {
		t.Fatalf("iteration bound ineffective: %d / %d / %d", small.Len(), deflt.Len(), full.Len())
	}
	if full.Len() != 79 {
		t.Fatalf("full chain = %d spans, want 79", full.Len())
	}
}

func TestSpanListWindowAndLimit(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	for i := 0; i < 100; i++ {
		i := i
		ingestSpans(t, srv, mkSpan(func(sp *trace.Span) {
			sp.StartTime = sim.Epoch.Add(time.Duration(i) * time.Second)
			sp.EndTime = sp.StartTime.Add(time.Millisecond)
		}))
	}
	got := srv.SpanList(sim.Epoch.Add(10*time.Second), sim.Epoch.Add(20*time.Second), 0)
	if len(got) != 10 {
		t.Fatalf("window spans = %d, want 10", len(got))
	}
	// Newest first.
	if !got[0].StartTime.After(got[len(got)-1].StartTime) {
		t.Fatal("span list not newest-first")
	}
	limited := srv.SpanList(sim.Epoch, sim.Epoch.Add(time.Hour), 5)
	if len(limited) != 5 {
		t.Fatalf("limited spans = %d", len(limited))
	}
}

func TestOTelIntegrationRules(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }

	sEBPF := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapServerProcess
		sp.TraceID = "t-1"
		sp.SysTraceID = 500
		sp.StartTime, sp.EndTime = at(0), at(100)
	})
	app := mkSpan(func(sp *trace.Span) {
		sp.Source = trace.SourceOTel
		sp.TapSide = trace.TapApp
		sp.TraceID = "t-1"
		sp.SpanRef = "app-1"
		sp.StartTime, sp.EndTime = at(10), at(90)
	})
	child := mkSpan(func(sp *trace.Span) {
		sp.Source = trace.SourceOTel
		sp.TapSide = trace.TapApp
		sp.TraceID = "t-1"
		sp.SpanRef = "app-2"
		sp.ParentSpanRef = "app-1"
		sp.StartTime, sp.EndTime = at(20), at(80)
	})
	ebpfClient := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapClientProcess
		sp.TraceID = "t-1"
		sp.ParentSpanRef = "app-2"
		sp.SysTraceID = 500
		sp.StartTime, sp.EndTime = at(30), at(70)
	})
	ingestSpans(t, srv, sEBPF, app, child, ebpfClient)
	tr := srv.Trace(sEBPF.ID)
	if tr.Len() != 4 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	parent := map[trace.SpanID]trace.SpanID{}
	for _, sp := range tr.Spans {
		parent[sp.ID] = sp.ParentID
	}
	if parent[app.ID] != sEBPF.ID {
		t.Errorf("app span parent = %d, want eBPF server %d", parent[app.ID], sEBPF.ID)
	}
	if parent[child.ID] != app.ID {
		t.Errorf("child app parent = %d, want app %d", parent[child.ID], app.ID)
	}
	if parent[ebpfClient.ID] != child.ID {
		t.Errorf("eBPF client parent = %d, want app-2 %d (explicit ref beats systrace)", parent[ebpfClient.ID], child.ID)
	}
}

func TestEncodingResourceOrdering(t *testing.T) {
	reg, cluster, _ := testRegistry(t)
	pod := cluster.Pod("frontend-0")
	build := func(enc Encoding) int64 {
		srv := New(reg, enc)
		defer srv.Close()
		spans := make([]*trace.Span, 5000)
		for i := range spans {
			spans[i] = mkSpan(func(sp *trace.Span) {
				sp.Resource.IP = pod.IP
				sp.XRequestID = "xr"
			})
		}
		ingestSpans(t, srv, spans...)
		return srv.stores[0].DiskBytes()
	}
	smart, direct, low := build(EncodingSmart), build(EncodingDirect), build(EncodingLowCard)
	if !(smart < low && low < direct) {
		t.Fatalf("disk: smart=%d low=%d direct=%d not ordered", smart, low, direct)
	}
}

func TestIngestFlowAndCorrelation(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	ts := sim.Epoch.Add(time.Second)
	sp := mkSpan(func(sp *trace.Span) { sp.Flow = flowAB })
	ingestRows(t, srv, []*trace.Span{sp}, []agent.FlowSample{{
		TS: ts, Host: "node-1", NIC: "node/node-1",
		Tuple: flowAB.Canonical(),
		Delta: trace.NetMetrics{Resets: 3, Retransmissions: 2, RTT: time.Millisecond},
	}}, nil)

	series := srv.RelatedMetrics(sp, "net.resets", sim.Epoch, sim.Epoch.Add(time.Minute))
	if len(series) != 1 || series[0].Points[0].Value != 3 {
		t.Fatalf("correlated resets = %+v", series)
	}
	if srv.Metrics.Sum("net.rtt_us", nil, sim.Epoch, sim.Epoch.Add(time.Minute)) != 1000 {
		t.Fatal("rtt series missing")
	}
	if srv.FlowsIngested() != 1 || srv.SpansIngested() != 1 {
		t.Fatal("ingest counters wrong")
	}
}

func TestFormatTrace(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	spans := buildPathSpans(reg)
	for _, sp := range spans {
		sp.RequestType, sp.RequestResource, sp.ResponseCode, sp.ResponseStatus = "GET", "/x", 200, "ok"
	}
	ingestSpans(t, srv, spans...)
	out := srv.FormatTrace(srv.Trace(spans[0].ID))
	if !strings.Contains(out, "[c]") || !strings.Contains(out, "[s]") || !strings.Contains(out, "GET /x") {
		t.Fatalf("format output:\n%s", out)
	}
	if srv.FormatTrace(nil) == "" {
		t.Fatal("nil trace should format to placeholder")
	}
}

func TestBreakCycles(t *testing.T) {
	a := &trace.Span{ID: 1, ParentID: 2}
	b := &trace.Span{ID: 2, ParentID: 1}
	spans := []*trace.Span{a, b}
	breakCycles(spans)
	if a.ParentID != 0 && b.ParentID != 0 {
		t.Fatal("cycle not broken")
	}
}

func TestChooseParentPrefersNearestHop(t *testing.T) {
	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	child := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapServerProcess
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 10, 20
		sp.StartTime, sp.EndTime = at(10), at(20)
	})
	far := mkSpan(func(sp *trace.Span) {
		sp.TapSide = trace.TapClientProcess
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 10, 20
		sp.StartTime, sp.EndTime = at(0), at(30)
	})
	near := mkSpan(func(sp *trace.Span) {
		sp.Source = trace.SourcePacket
		sp.TapSide = trace.TapServerNIC
		sp.Flow, sp.ReqTCPSeq, sp.RespTCPSeq = flowAB, 10, 20
		sp.StartTime, sp.EndTime = at(5), at(25)
	})
	got := chooseParent(child, []*trace.Span{far, near})
	if got != near {
		t.Fatalf("parent = %v, want nearest hop s-nic", got)
	}
	// Without the NIC span, falls back to the client process span.
	if got := chooseParent(child, []*trace.Span{far}); got != far {
		t.Fatalf("fallback parent = %v", got)
	}
	// No candidates: nil.
	if got := chooseParent(child, nil); got != nil {
		t.Fatalf("no-candidate parent = %v", got)
	}
}

func TestRuleTableComplete(t *testing.T) {
	if len(parentRules) != 16 {
		t.Fatalf("parent rule table has %d rules, paper specifies 16", len(parentRules))
	}
	seen := map[int]bool{}
	for _, r := range parentRules {
		if r.id < 1 || r.id > 16 || seen[r.id] || r.name == "" || r.match == nil {
			t.Fatalf("bad rule entry %+v", r)
		}
		seen[r.id] = true
	}
}
