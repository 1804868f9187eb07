package agent

import (
	"math"
	"os"
	"testing"
	"time"

	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
)

// benchAgent builds an eBPF-only agent (the Fig. 13 hook path: programs +
// perf drain, no user-space sessionizing) with self-monitoring on or off.
func benchAgent(tb testing.TB, selfmonOff bool) *Agent {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Mode = ModeEBPFOnly
	cfg.SelfmonOff = selfmonOff
	eng := sim.NewEngine(9)
	net := simnet.NewNetwork(eng, &trace.IDAllocator{})
	node := net.AddHost("bench-node", simnet.KindNode, nil)
	ag, err := New(node, cfg, &collectSink{})
	if err != nil {
		tb.Fatal(err)
	}
	return ag
}

func benchCtxs() (*simkernel.HookContext, *simkernel.HookContext) {
	enter := exitCtx()
	enter.Phase = simkernel.PhaseEnter
	return enter, exitCtx()
}

// hookPairNS returns the mean wall-clock ns of one enter+exit hook pair: the
// minimum mean over several chunks, robust against GC and scheduler noise
// (same measurement discipline as the Fig. 13 experiment).
func hookPairNS(tb testing.TB, selfmonOff bool, events int) float64 {
	ag := benchAgent(tb, selfmonOff)
	enter, exit := benchCtxs()
	for i := 0; i < 2000; i++ { // warm up
		ag.onEnter(enter)
		ag.onExit(exit)
	}
	const chunks = 7
	per := events / chunks
	if per < 1 {
		per = 1
	}
	best := math.MaxFloat64
	for c := 0; c < chunks; c++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			ag.onEnter(enter)
			ag.onExit(exit)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(per)
		if ns < best {
			best = ns
		}
	}
	return best
}

// TestHookInstrumentationGuard asserts the self-monitoring increments on the
// hot hook path cost < 5% over the uninstrumented baseline. It needs a quiet
// machine, so it only runs when DF_GUARD=1 (scripts/check.sh sets it).
func TestHookInstrumentationGuard(t *testing.T) {
	if os.Getenv("DF_GUARD") == "" {
		t.Skip("set DF_GUARD=1 to run the instrumentation-overhead guard")
	}
	const events = 70000
	// Interleave A/B rounds and keep each side's minimum so slow drift in
	// machine load cancels instead of biasing one side.
	base, inst := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 3; round++ {
		if b := hookPairNS(t, true, events); b < base {
			base = b
		}
		if i := hookPairNS(t, false, events); i < inst {
			inst = i
		}
	}
	overhead := (inst - base) / base
	t.Logf("hook pair: baseline %.1f ns, instrumented %.1f ns, overhead %+.2f%%",
		base, inst, overhead*100)
	if overhead > 0.05 {
		t.Errorf("self-monitoring overhead %.2f%% exceeds the 5%% budget (baseline %.1f ns, instrumented %.1f ns)",
			overhead*100, base, inst)
	}
}

func BenchmarkHookPairInstrumented(b *testing.B) { benchHookPair(b, false) }

func BenchmarkHookPairBaseline(b *testing.B) { benchHookPair(b, true) }

func benchHookPair(b *testing.B, selfmonOff bool) {
	ag := benchAgent(b, selfmonOff)
	enter, exit := benchCtxs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag.onEnter(enter)
		ag.onExit(exit)
	}
}
