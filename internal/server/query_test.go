package server

import (
	"testing"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/trace"
)

func populateQueryServer(t *testing.T) *Server {
	t.Helper()
	reg, cluster, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	front := cluster.Pod("frontend-0")
	back := cluster.Pod("backend-0")

	mk := func(i int, proc string, pod trace.IP, side trace.TapSide, dur time.Duration, status string, code int32) {
		start := sim.Epoch.Add(time.Duration(i) * time.Millisecond)
		ingestSpans(t, srv, &trace.Span{
			ID:             ids.NextSpanID(),
			Source:         trace.SourceEBPF,
			TapSide:        side,
			ProcessName:    proc,
			L7:             trace.L7HTTP,
			StartTime:      start,
			EndTime:        start.Add(dur),
			ResponseStatus: status,
			ResponseCode:   code,
			Resource:       trace.ResourceTags{IP: pod},
		})
	}
	for i := 0; i < 10; i++ {
		mk(i, "frontend", front.IP, trace.TapServerProcess, time.Millisecond, "ok", 200)
	}
	mk(10, "frontend", front.IP, trace.TapServerProcess, 50*time.Millisecond, "ok", 200)
	mk(11, "frontend", front.IP, trace.TapServerProcess, 2*time.Millisecond, "error", 500)
	for i := 12; i < 15; i++ {
		mk(i, "backend", back.IP, trace.TapServerProcess, 3*time.Millisecond, "ok", 200)
	}
	mk(15, "wrk", 0, trace.TapClientProcess, 4*time.Millisecond, "ok", 200)
	return srv
}

var queryWindow = sim.Epoch.Add(time.Hour)

func TestQuerySpansFilters(t *testing.T) {
	srv := populateQueryServer(t)

	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{}, 0); len(got) != 16 {
		t.Fatalf("unfiltered = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{Status: "error"}, 0); len(got) != 1 {
		t.Fatalf("error spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{MinCode: 400}, 0); len(got) != 1 {
		t.Fatalf("code>=400 spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{MinDuration: 10 * time.Millisecond}, 0); len(got) != 1 {
		t.Fatalf("slow spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{Service: "backend"}, 0); len(got) != 3 {
		t.Fatalf("service spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{Pod: "frontend-0"}, 0); len(got) != 12 {
		t.Fatalf("pod spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{TapSide: trace.TapClientProcess}, 0); len(got) != 1 {
		t.Fatalf("client spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{ProcessName: "wrk"}, 0); len(got) != 1 {
		t.Fatalf("proc spans = %d", len(got))
	}
	if got := srv.QuerySpans(sim.Epoch, queryWindow, SpanFilter{}, 5); len(got) != 5 {
		t.Fatalf("limited = %d", len(got))
	}
}

func TestSlowestSpans(t *testing.T) {
	srv := populateQueryServer(t)
	top := srv.SlowestSpans(sim.Epoch, queryWindow, SpanFilter{Service: "frontend"}, 3)
	if len(top) != 3 {
		t.Fatalf("top = %d", len(top))
	}
	if top[0].Duration() != 50*time.Millisecond {
		t.Fatalf("slowest = %v", top[0].Duration())
	}
	for i := 1; i < len(top); i++ {
		if top[i].Duration() > top[i-1].Duration() {
			t.Fatal("not sorted by duration")
		}
	}
	// n larger than the population.
	all := srv.SlowestSpans(sim.Epoch, queryWindow, SpanFilter{Service: "backend"}, 100)
	if len(all) != 3 {
		t.Fatalf("clamped = %d", len(all))
	}
}

func TestSummarizeServices(t *testing.T) {
	srv := populateQueryServer(t)
	sums := srv.SummarizeServices(sim.Epoch, queryWindow)
	byName := map[string]ServiceSummary{}
	for _, s := range sums {
		byName[s.Service] = s
	}
	fe := byName["frontend"]
	if fe.Requests != 12 || fe.Errors != 1 {
		t.Fatalf("frontend = %+v", fe)
	}
	if fe.MaxDur != 50*time.Millisecond {
		t.Fatalf("frontend max = %v", fe.MaxDur)
	}
	if fe.MeanDur <= time.Millisecond || fe.MeanDur >= 50*time.Millisecond {
		t.Fatalf("frontend mean = %v", fe.MeanDur)
	}
	be := byName["backend"]
	if be.Requests != 3 || be.Errors != 0 {
		t.Fatalf("backend = %+v", be)
	}
	// Client spans are excluded from service summaries.
	if _, ok := byName["wrk"]; ok {
		t.Fatal("client span counted as a service")
	}
}
