package main

import (
	"fmt"
	"sort"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/experiments"
	"deepflow/internal/k8s"
	"deepflow/internal/microsim"
	"deepflow/internal/profiling"
	"deepflow/internal/server"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// flushTick is the agents' flush cadence in virtual time: one wire batch
// per agent per tick, so a tick is also the unit of capture latency.
const flushTick = 100 * time.Millisecond

// drainVirt is how long the simulation keeps running after the load
// generators stop, so every request completes and no session is left open
// (an open session would surface as a timeout span whose ID depends on
// agent flush order).
const drainVirt = 500 * time.Millisecond

// sizes fixes the work of every workload. The defaults are the benchmark;
// the tests shrink them.
type sizes struct {
	bookinfoRPS   float64
	bookinfoConns int
	polyglotRPS   float64
	polyglotConns int

	captureVirt time.Duration // load per capture-live rep
	journeyVirt time.Duration // load per journey-live rep
	ingestVirt  time.Duration // recorded corpus of ingest-durable
	preloadVirt time.Duration // recorded corpus preloaded by query-mixed
	replayVirt  time.Duration // recorded corpus (with hook contexts) of the agent-side layer replays

	streamRate    float64 // open-loop spans/s of the mixed phase
	searchWindow  time.Duration
	drillRoots    int // traces per drill step
	setups        int // set-up repetitions (median reported)
	minReps       int
	journeyAsks   int // sessions at the end of each journey rep
	chunkSessions int // quiet sessions per chunk of query-mixed
}

func defaultSizes() sizes {
	return sizes{
		bookinfoRPS: 1000, bookinfoConns: 16, polyglotRPS: 250, polyglotConns: 8,
		captureVirt: 4 * time.Second, journeyVirt: 3 * time.Second,
		ingestVirt: 4 * time.Second, preloadVirt: 4 * time.Second, replayVirt: time.Second,
		streamRate: 20000, searchWindow: 500 * time.Millisecond, drillRoots: 25,
		setups: 3, minReps: 5, journeyAsks: 3, chunkSessions: 16,
	}
}

// agentConfig is the full-function agent the live workloads deploy: packet
// taps and uprobes on, hook and user-space costs at the Fig. 13 defaults
// scaled by the experiments' syscall-fidelity factor. The costs are fixed
// constants rather than experiments.CalibratedAgentConfig's per-machine
// measurement, because they shape virtual time: a measured cost would make
// the same seed give different spans on different runs.
func agentConfig() agent.Config {
	cfg := agent.DefaultConfig()
	cfg.EnableUprobe = true
	cfg.HookCost *= experiments.SyscallFidelity
	cfg.AgentCost = cfg.HookCost / 2
	return cfg
}

// liveEnv is one simulated service map: Bookinfo and the four-protocol
// polyglot chain in one environment, each under its own open-loop load
// generator.
type liveEnv struct {
	env      *microsim.Env
	clusters []*k8s.Cluster
	hosts    []*simnet.Host // sorted by name: Network.Hosts ranges over a map
	gens     []*microsim.LoadGen
	agents   []*agent.Agent
}

func buildLive(seed int64, sz sizes) *liveEnv {
	env := microsim.NewEnv(seed)
	bi := microsim.BuildBookinfo(env, nil)
	pg := microsim.BuildPolyglot(env)
	l := &liveEnv{env: env, clusters: []*k8s.Cluster{bi.Cluster, pg.Cluster}}
	l.hosts = env.Net.Hosts()
	sort.Slice(l.hosts, func(i, j int) bool { return l.hosts[i].Name < l.hosts[j].Name })
	g1 := microsim.NewLoadGen(env, "load", bi.ClientHost, bi.Entry, sz.bookinfoConns, sz.bookinfoRPS)
	g1.Path = "/productpage"
	g2 := microsim.NewLoadGen(env, "pgload", pg.ClientHost, pg.Entry, sz.polyglotConns, sz.polyglotRPS)
	g2.Path = "/cart/42"
	l.gens = []*microsim.LoadGen{g1, g2}
	return l
}

// registry builds the server's resource registry the way core.NewDeployment
// does: clusters first, then every host outside them.
func (l *liveEnv) registry() *server.ResourceRegistry {
	reg := server.NewResourceRegistry(l.clusters, nil)
	known := map[string]bool{}
	for _, c := range l.clusters {
		for _, n := range c.Nodes() {
			known[n.Name] = true
		}
		for _, p := range c.Pods() {
			known[p.Name] = true
		}
	}
	for _, h := range l.hosts {
		if !known[h.Name] {
			reg.RegisterHost(h.Name, h.IP, nil)
		}
	}
	return reg
}

// deployAgents starts one real agent per host, shipping to sink.
func (l *liveEnv) deployAgents(sink agent.Sink) error {
	cfg := agentConfig()
	for _, h := range l.hosts {
		ag, err := agent.New(h, cfg, sink)
		if err != nil {
			return fmt.Errorf("agent on %s: %w", h.Name, err)
		}
		if err := ag.Start(); err != nil {
			return fmt.Errorf("start agent on %s: %w", h.Name, err)
		}
		l.agents = append(l.agents, ag)
	}
	return nil
}

// run offers load for virt of virtual time and keeps the simulation going
// drainVirt longer. It advances one flush tick at a time; after each tick
// perTick runs (the harness-owned agents' flush, or nothing when a
// core.Deployment flushes by itself) and the tick's wall time is appended
// to tickMS. span names the harness span around each step: "sim.run" when
// the step is the simulator and the hooks it fires, "journey.tick" when a
// core.Deployment also flushes and drains inside it.
func (l *liveEnv) run(virt time.Duration, k *track, span string, perTick func(now time.Time), tickMS *[]float64) {
	for _, g := range l.gens {
		g.Start(virt)
	}
	for t := time.Duration(0); t < virt+drainVirt; t += flushTick {
		t0 := time.Now()
		end := k.span(span)
		l.env.Run(flushTick)
		end()
		if perTick != nil {
			perTick(l.env.Eng.Now())
		}
		if tickMS != nil {
			*tickMS = append(*tickMS, ms(time.Since(t0)))
		}
	}
}

// flushAgents is the per-tick flush of harness-owned agents.
func (l *liveEnv) flushAgents(k *track) func(time.Time) {
	return func(now time.Time) {
		defer k.span("agent.flush")()
		for _, ag := range l.agents {
			ag.Flush(now)
		}
	}
}

// finishAgents force-completes open sessions and detaches every hook.
func (l *liveEnv) finishAgents(k *track) {
	end := k.span("agent.flush_all")
	for _, ag := range l.agents {
		ag.FlushAll()
	}
	end()
	for _, ag := range l.agents {
		ag.Stop()
	}
}

// agentTotals sums the agents' public counters.
type agentTotals struct {
	spans              int
	cpu                time.Duration
	hookErrors         uint64
	perfLost, perfEmit uint64
	fast, slow, giveup int
}

func (l *liveEnv) totals() agentTotals {
	var t agentTotals
	for _, ag := range l.agents {
		t.spans += ag.SpansEmitted
		t.cpu += ag.CPUTime
		t.hookErrors += ag.HookErrors
		t.perfLost += ag.Progs.Perf.Lost()
		t.perfEmit += ag.Progs.Perf.Emitted()
		f, s, g := ag.PathStats()
		t.fast += f
		t.slow += s
		t.giveup += g
	}
	return t
}

func (l *liveEnv) loadErrors() int {
	n := 0
	for _, g := range l.gens {
		n += g.Errors + (g.Started - g.Completed)
	}
	return n
}

// countSink is the discard sink of capture-live: it counts what the agents
// hand over and keeps nothing. The per-item methods exist only to satisfy
// agent.Sink; an agent whose sink has IngestBatch never calls them.
type countSink struct {
	k       *track
	batches int
	bytes   int
}

func (s *countSink) IngestSpan(*trace.Span)         {}
func (s *countSink) IngestFlow(agent.FlowSample)    {}
func (s *countSink) IngestProfile(profiling.Sample) {}
func (s *countSink) IngestBatch(data []byte) error {
	defer s.k.span("sink.discard")()
	s.batches++
	s.bytes += len(data)
	return nil
}

// recordSink keeps every wire batch the agents ship, in ship order, with
// the flush tick it left on.
type recordSink struct {
	countSink
	tick     int
	batches  []wireBatch
	roots    []rootRef
	sysSpans map[trace.L7Proto]int // syscall-sourced spans per protocol
}

// wireBatch is one recorded agent batch: the exact bytes a server would
// receive, plus what the harness needs to replay it on a schedule.
type wireBatch struct {
	data  []byte
	spans int
	tick  int
}

func (s *recordSink) IngestBatch(data []byte) error {
	defer s.k.span("sink.record")()
	b, err := transport.Decode(data)
	if err != nil {
		return fmt.Errorf("recorded batch does not decode: %w", err)
	}
	s.batches = append(s.batches, wireBatch{data: append([]byte(nil), data...), spans: len(b.Spans), tick: s.tick})
	for _, sp := range b.Spans {
		if sp.Source == trace.SourceEBPF || sp.Source == trace.SourceUProbe {
			s.sysSpans[sp.L7]++
		}
		if sp.ProcessName == "load" && sp.TapSide == trace.TapClientProcess && sp.ResponseStatus == "ok" {
			s.roots = append(s.roots, rootRef{id: sp.ID, start: sp.StartTime})
		}
	}
	s.countSink.batches++
	s.countSink.bytes += len(data)
	return nil
}

// hookRec is one recorded hook firing on one host.
type hookRec struct {
	host   string
	uprobe bool
	ctx    simkernel.HookContext
}

// recordHooks attaches the harness's own recorders beside the agents'
// hooks on every host, keeping the HookContext stream for the agent-side
// layer replays.
func (l *liveEnv) recordHooks(out *[]hookRec) error {
	for _, h := range l.hosts {
		host := h.Name
		rec := func(ctx *simkernel.HookContext) { *out = append(*out, hookRec{host: host, ctx: *ctx}) }
		urec := func(ctx *simkernel.HookContext) { *out = append(*out, hookRec{host: host, uprobe: true, ctx: *ctx}) }
		for _, abi := range append(append([]simkernel.ABI{}, simkernel.IngressABIs...), simkernel.EgressABIs...) {
			for _, ph := range []simkernel.Phase{simkernel.PhaseEnter, simkernel.PhaseExit} {
				if _, err := h.Kernel.AttachSyscall(abi, ph, simkernel.AttachKprobe, "bench_rec", rec); err != nil {
					return err
				}
			}
		}
		for _, sym := range []string{"ssl_read", "ssl_write"} {
			if _, err := h.Kernel.AttachUprobe(sym, simkernel.AttachUprobe, "bench_rec", urec); err != nil {
				return err
			}
		}
	}
	return nil
}

// corpus is a recording of the simulated service map: what real agents on
// every host shipped while Bookinfo and the polyglot chain served load.
// It is the server-side workloads' input — recorded, not synthesised, so
// the span mix is the one the pipeline produces.
type corpus struct {
	reg       *server.ResourceRegistry
	batches   []wireBatch
	spans     int
	wireBytes int
	loadVirt  time.Duration
	roots     []rootRef             // completed /productpage requests
	sysSpans  map[trace.L7Proto]int // syscall-sourced spans per protocol
	hooks     []hookRec
}

// recordCorpus runs the live simulation for virt under real agents and a
// recording sink. withHooks also keeps the HookContext stream.
func recordCorpus(seed int64, sz sizes, virt time.Duration, withHooks bool, k *track) (*corpus, error) {
	defer k.span("corpus.record")()
	l := buildLive(seed, sz)
	sink := &recordSink{sysSpans: map[trace.L7Proto]int{}}
	sink.k = k
	if err := l.deployAgents(sink); err != nil {
		return nil, err
	}
	c := &corpus{reg: l.registry(), loadVirt: virt}
	if withHooks {
		if err := l.recordHooks(&c.hooks); err != nil {
			return nil, err
		}
	}
	flush := l.flushAgents(k)
	l.run(virt, k, "sim.run", func(now time.Time) { flush(now); sink.tick++ }, nil)
	l.finishAgents(k)
	tot := l.totals()
	c.batches, c.wireBytes = sink.batches, sink.bytes
	c.roots, c.sysSpans = sink.roots, sink.sysSpans
	for _, b := range c.batches {
		c.spans += b.spans
	}
	if c.spans != tot.spans {
		return nil, fmt.Errorf("recorded %d spans, agents emitted %d", c.spans, tot.spans)
	}
	if n := l.loadErrors(); n != 0 {
		return nil, fmt.Errorf("recording: %d requests failed or never completed", n)
	}
	if tot.perfLost != 0 || tot.hookErrors != 0 {
		return nil, fmt.Errorf("recording: %d perf records lost, %d hook errors", tot.perfLost, tot.hookErrors)
	}
	return c, nil
}
