package faults

import (
	"testing"
	"time"

	"deepflow/internal/microsim"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

func TestInjectPodErrorComposes(t *testing.T) {
	env := microsim.NewEnv(1)
	host := env.Net.AddHost("h", simnet.KindNode, nil)
	c := microsim.MustComponent(env, microsim.Config{Name: "svc", Host: host, Port: 80})
	InjectPodError(c, "/a", 404)
	InjectPodError(c, "/b", 500)

	if code, hit := c.FailFn("/a"); !hit || code != 404 {
		t.Fatalf("/a = %d %v", code, hit)
	}
	if code, hit := c.FailFn("/b"); !hit || code != 500 {
		t.Fatalf("/b = %d %v", code, hit)
	}
	if _, hit := c.FailFn("/ok"); hit {
		t.Fatal("unrelated path failed")
	}
}

func TestInjectInfraKnobs(t *testing.T) {
	env := microsim.NewEnv(1)
	h := env.Net.AddHost("h", simnet.KindNode, nil)
	InjectNICARPFault(h, 5, 10*time.Millisecond)
	if !h.NIC.ARPFault || h.NIC.ARPExtra != 5 || h.NIC.ARPFaultDelay != 10*time.Millisecond {
		t.Fatalf("ARP fault = %+v", h.NIC)
	}
	InjectLinkLoss(h, 0.25)
	if h.UplinkLoss != 0.25 {
		t.Fatal("loss not set")
	}
	InjectNodeLatency(h, 3*time.Millisecond)
	if h.UplinkLatency != 3*time.Millisecond {
		t.Fatal("latency not set")
	}
}

// ingestSpan ships one span the way agents do — an encoded batch — and
// waits until it is queryable.
func ingestSpan(t *testing.T, srv *server.Server, sp *trace.Span) {
	t.Helper()
	if err := srv.IngestBatch(transport.Encode(&transport.Batch{Host: "test", Seq: 1, Spans: []*trace.Span{sp}})); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
}

func TestLocalizeErrorSourceEmpty(t *testing.T) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.New(reg, server.EncodingSmart)
	v := LocalizeErrorSource(srv, sim.Epoch, sim.Epoch.Add(time.Hour))
	if v.Errors != 0 || v.Pod != "" {
		t.Fatalf("empty store verdict = %+v", v)
	}
}

func TestLocalizeErrorSourcePicksWorst(t *testing.T) {
	reg := server.NewResourceRegistry(nil, nil)
	srv := server.New(reg, server.EncodingSmart)
	var id uint64
	add := func(host string, status string, n int) {
		for i := 0; i < n; i++ {
			id++
			ingestSpan(t, srv, &trace.Span{
				ID: trace.SpanID(id), TapSide: trace.TapServerProcess,
				HostName: host, ResponseStatus: status,
				StartTime: sim.Epoch, EndTime: sim.Epoch.Add(time.Millisecond),
			})
		}
	}
	add("pod-a", "error", 2)
	add("pod-b", "error", 7)
	add("pod-b", "ok", 10)
	add("pod-c", "ok", 50)
	v := LocalizeErrorSource(srv, sim.Epoch, sim.Epoch.Add(time.Hour))
	if v.Pod != "pod-b" || v.Errors != 7 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestLocalizeARPAnomalyOrdering(t *testing.T) {
	env := microsim.NewEnv(1)
	a := env.Net.AddHost("a", simnet.KindNode, nil)
	b := env.Net.AddHost("b", simnet.KindNode, nil)
	env.Net.AddHost("quiet", simnet.KindNode, nil)
	a.NIC.ARPs = 3
	b.NIC.ARPs = 30
	out := LocalizeARPAnomaly(env.Net)
	if len(out) != 2 || out[0].Host != "b" || out[1].Host != "a" {
		t.Fatalf("suspects = %+v", out)
	}
}
