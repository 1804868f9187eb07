package agent

import (
	"strings"
	"testing"
	"time"

	"deepflow/internal/ebpfvm"
	"deepflow/internal/metrics"
	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// newBareAgent builds an agent on a fresh one-host network without starting
// it, for tests that drive hook programs directly.
func newBareAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	eng := sim.NewEngine(5)
	net := simnet.NewNetwork(eng, &trace.IDAllocator{})
	node := net.AddHost("node-x", simnet.KindNode, nil)
	ag, err := New(node, cfg, &collectSink{})
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

func exitCtx() *simkernel.HookContext {
	payload := []byte("GET /api/items HTTP/1.1\r\nHost: svc\r\n\r\n")
	return &simkernel.HookContext{
		PID: 100, TID: 200, ProcName: "svc",
		Socket: 42, ABI: simkernel.ABIRead, Phase: simkernel.PhaseExit,
		Tuple:   trace.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: trace.L4TCP},
		EnterNS: 1, ExitNS: 2, DataLen: int32(len(payload)), Payload: payload,
	}
}

// TestPerfOverflowLostCounted simulates user space being descheduled: exit
// hooks keep firing into a tiny perf ring with no drain in between. The ring
// must drop (never block), and the drops must surface in Lost(), the
// deepflow_agent_perf_lost gauge, and the exported series.
func TestPerfOverflowLostCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerfCapacity = 2
	ag := newBareAgent(t, cfg)

	ctx := exitCtx()
	scratch := make([]byte, simkernel.CtxSize)
	for i := 0; i < 5; i++ {
		if err := ag.Progs.RunHook(ag.Progs.Exit, ctx, scratch); err != nil {
			t.Fatal(err)
		}
	}
	if lost := ag.Progs.Perf.Lost(); lost != 3 {
		t.Fatalf("Lost() = %d, want 3 (5 emits into capacity 2)", lost)
	}

	var gauge float64
	found := false
	for _, s := range ag.Mon.Snapshot() {
		if s.Name == "deepflow_agent_perf_lost" {
			gauge, found = s.Value, true
		}
	}
	if !found || gauge != 3 {
		t.Errorf("perf_lost gauge = %v (found=%v), want 3", gauge, found)
	}

	st := metrics.NewStore()
	ag.Mon.Export(st, sim.Epoch)
	series := st.Query("deepflow_agent_perf_lost",
		map[string]string{"host": "node-x", "component": "agent"},
		sim.Epoch.Add(-time.Second), sim.Epoch.Add(time.Second))
	if len(series) != 1 || len(series[0].Points) != 1 || series[0].Points[0].Value != 3 {
		t.Fatalf("exported perf_lost series = %+v, want one point of 3", series)
	}

	var b strings.Builder
	if err := ag.WriteStats(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "deepflow_agent_perf_lost") {
		t.Error("WriteStats missing deepflow_agent_perf_lost")
	}
}

// TestHookFailureSkipsEventWithoutPanic breaks one of the agent's hook
// programs (an unverified program, which the VM refuses to run) and fires
// the hook. The agent must not panic: the event is skipped for that program,
// the rest of the pipeline continues, and the failure is counted.
func TestHookFailureSkipsEventWithoutPanic(t *testing.T) {
	ag := newBareAgent(t, DefaultConfig())

	bad, err := ebpfvm.NewAsm("df_flow_stats").MovImm(ebpfvm.R0, 0).Exit().Build()
	if err != nil {
		t.Fatal(err)
	}
	ag.Progs.FlowStats = bad // never verified: vm.Run refuses it

	ctx := exitCtx()
	ag.onExit(ctx) // would have panicked before graceful-skip
	ag.onExit(ctx)

	if ag.HookErrors != 2 {
		t.Fatalf("HookErrors = %d, want 2", ag.HookErrors)
	}
	// The exit program itself still ran and its events were handled.
	if ag.EventsHandled != 2 {
		t.Errorf("EventsHandled = %d, want 2 (pipeline must continue past the bad program)", ag.EventsHandled)
	}

	var hits float64
	for _, s := range ag.Mon.Snapshot() {
		if s.Name == "deepflow_agent_hook_errors" && s.Tags["hook"] == "df_flow_stats" {
			hits = s.Value
		}
	}
	if hits != 2 {
		t.Errorf("hook_errors{hook=df_flow_stats} = %v, want 2", hits)
	}
}

// TestHookEventCountsPerABI drives enter+exit pairs through two ABIs and
// checks the per-hook counters split correctly.
func TestHookEventCountsPerABI(t *testing.T) {
	ag := newBareAgent(t, DefaultConfig())
	for i := 0; i < 3; i++ {
		ctx := exitCtx()
		ctx.Phase = simkernel.PhaseEnter
		ag.onEnter(ctx)
		ctx.Phase = simkernel.PhaseExit
		ag.onExit(ctx)
	}
	ctx := exitCtx()
	ctx.ABI = simkernel.ABIRecvfrom
	ag.onExit(ctx)

	want := map[string]float64{
		"read/enter":     3,
		"read/exit":      3,
		"recvfrom/exit":  1,
		"recvfrom/enter": 0,
	}
	got := map[string]float64{}
	for _, s := range ag.Mon.Snapshot() {
		if s.Name == "deepflow_agent_hook_events" {
			got[s.Tags["hook"]] = s.Value
		}
	}
	for hook, n := range want {
		if got[hook] != n {
			t.Errorf("hook_events{hook=%s} = %v, want %v", hook, got[hook], n)
		}
	}
}
