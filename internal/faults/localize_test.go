package faults

import (
	"testing"
	"time"

	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

func TestLocalizeSlowHopRanksGaps(t *testing.T) {
	at := func(ms int) time.Time { return sim.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(id trace.SpanID, parent trace.SpanID, host string, s, e int) *trace.Span {
		return &trace.Span{ID: id, ParentID: parent, HostName: host, StartTime: at(s), EndTime: at(e)}
	}
	tr := &trace.Trace{}
	tr.Spans = []*trace.Span{
		mk(1, 0, "client", 0, 100),
		mk(2, 1, "node-1", 1, 99),  // gap client→node-1: 2ms
		mk(3, 2, "node-2", 21, 59), // gap node-1→node-2: 60ms (the slow hop)
		mk(4, 3, "server", 22, 58), // gap node-2→server: 2ms
	}
	tr.Root = tr.Spans[0]
	hops := LocalizeSlowHop(tr)
	if len(hops) != 3 {
		t.Fatalf("hops = %+v", hops)
	}
	if hops[0].From != "node-1" || hops[0].To != "node-2" || hops[0].Delta != 60*time.Millisecond {
		t.Fatalf("top hop = %+v", hops[0])
	}
	// Same-host parent/child pairs are not segments.
	tr.Spans = append(tr.Spans, mk(5, 4, "server", 30, 50))
	if got := LocalizeSlowHop(tr); len(got) != 3 {
		t.Fatalf("same-host pair counted: %+v", got)
	}
	if LocalizeSlowHop(nil) != nil {
		t.Fatal("nil trace should yield nil")
	}
}

func TestLocalizeTopTalker(t *testing.T) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.New(reg, server.EncodingSmart)
	ts := sim.Epoch.Add(time.Second)
	srv.Metrics.Add("net.bytes_sent", map[string]string{"flow": "f-big", "host": "h"}, ts, 5e6)
	srv.Metrics.Add("net.bytes_received", map[string]string{"flow": "f-big", "host": "h"}, ts, 5e6)
	srv.Metrics.Add("net.bytes_sent", map[string]string{"flow": "f-small", "host": "h"}, ts, 1e3)
	got := LocalizeTopTalker(srv, sim.Epoch, sim.Epoch.Add(time.Minute))
	if got.Flow != "f-big" || got.Bytes != 1e7 {
		t.Fatalf("top talker = %+v", got)
	}
}

func TestLocalizeUnreachableExcludesServed(t *testing.T) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.New(reg, server.EncodingSmart)
	flow := trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: trace.L4TCP}
	// A client error whose message WAS served (server answered 500).
	ingestSpan(t, srv, &trace.Span{
		ID: 1, TapSide: trace.TapClientProcess, Flow: flow, ReqTCPSeq: 5,
		ResponseStatus: "error", StartTime: sim.Epoch, EndTime: sim.Epoch.Add(time.Millisecond),
	})
	ingestSpan(t, srv, &trace.Span{
		ID: 2, TapSide: trace.TapServerProcess, Flow: flow, ReqTCPSeq: 5,
		ResponseStatus: "error", StartTime: sim.Epoch, EndTime: sim.Epoch.Add(time.Millisecond),
	})
	// A client timeout that nothing served.
	dead := trace.FiveTuple{SrcIP: 1, DstIP: 9, SrcPort: 1001, DstPort: 80, Proto: trace.L4TCP}
	ingestSpan(t, srv, &trace.Span{
		ID: 3, TapSide: trace.TapClientProcess, Flow: dead, ReqTCPSeq: 7,
		ResponseStatus: "timeout", StartTime: sim.Epoch, EndTime: sim.Epoch.Add(time.Millisecond),
	})
	got := LocalizeUnreachable(srv, sim.Epoch, sim.Epoch.Add(time.Minute))
	if got.Failures != 1 {
		t.Fatalf("verdict = %+v (served message counted?)", got)
	}
}

// TestLocalizationInconclusiveOnEmptyWindow pins the contract the alerting
// plane relies on: a window with no spans (or no matching spans) returns an
// explicit zero value reporting itself inconclusive, never an arbitrary
// suspect.
func TestLocalizationInconclusiveOnEmptyWindow(t *testing.T) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.New(reg, server.EncodingSmart)
	from, to := sim.Epoch, sim.Epoch.Add(time.Minute)

	if got := LocalizeErrorSource(srv, from, to); got != (ErrorPodResult{}) || got.Conclusive() {
		t.Fatalf("empty-window error source = %+v", got)
	}
	if got := LocalizeResets(srv, from, to); got != (ResetSource{}) || got.Conclusive() {
		t.Fatalf("empty-window reset source = %+v", got)
	}
	if got := LocalizeCPUHog(srv, from, to); got != (CPUHogResult{}) || got.Conclusive() {
		t.Fatalf("empty-window cpu hog = %+v", got)
	}
	if got := LocalizeUnreachable(srv, from, to); got != (UnreachableTarget{}) || got.Conclusive() {
		t.Fatalf("empty-window unreachable = %+v", got)
	}

	// Healthy spans only (no errors): still inconclusive.
	ingestSpan(t, srv, &trace.Span{
		ID: 1, TapSide: trace.TapServerProcess, L7: trace.L7HTTP,
		Flow:      trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 999, DstPort: 80, Proto: trace.L4TCP},
		StartTime: sim.Epoch.Add(time.Second), EndTime: sim.Epoch.Add(time.Second + 5*time.Millisecond),
		ProcessName: "web", ResponseStatus: "ok", ResponseCode: 200,
	})
	if got := LocalizeErrorSource(srv, from, to); got.Conclusive() {
		t.Fatalf("healthy window produced error suspect: %+v", got)
	}
	if got := LocalizeResets(srv, from, to); got.Conclusive() {
		t.Fatalf("healthy window produced reset suspect: %+v", got)
	}
}
