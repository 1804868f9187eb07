package agent

import (
	"io"
	"strings"
	"time"

	"deepflow/internal/profiling"
	"deepflow/internal/protocols"
	"deepflow/internal/selfmon"
	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/simnet"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// Mode selects how much of the agent runs (the Fig. 19 scenarios).
type Mode uint8

// Agent modes.
const (
	// ModeOff deploys nothing (baseline).
	ModeOff Mode = iota
	// ModeEBPFOnly attaches the hook programs and drains the perf buffer
	// but performs no user-space processing.
	ModeEBPFOnly
	// ModeFull runs the complete agent pipeline.
	ModeFull
)

// FlowSample is one interval's network metrics for a flow at a capture
// point, exported to the metrics plane for tag-based correlation (§3.4).
// It lives in the transport package — it is part of the wire format — and
// is aliased here for the agent-facing API.
type FlowSample = transport.FlowSample

// Sink receives the agent's output: one wire-encoded batch
// (transport.Encode) per flush window — the single agent→server seam. The
// DeepFlow server implements it (Server.IngestBatch).
type Sink interface {
	IngestBatch([]byte) error
}

// Config tunes an agent deployment.
type Config struct {
	Mode         Mode
	EnablePacket bool // tap this host's NIC (cBPF/AF_PACKET plane)
	EnableUprobe bool // attach TLS uprobes (ssl_read/ssl_write)
	PerfCapacity int
	ExtraCodecs  []protocols.Codec

	// VPCID is the smart-encoding phase-1 tag injected by the agent.
	VPCID int32

	// HookCost is the per-hook latency the eBPF plane adds to each
	// syscall; AgentCost is the additional user-space processing share in
	// full mode. Both are calibrated from the Fig. 13 microbenchmarks.
	HookCost  time.Duration
	AgentCost time.Duration

	// EnableProfiling arms the continuous on-CPU profiling plane: a
	// perf-event timer at ProfileFreqHz drives the verified sampling
	// program, and the count map is scraped into ProfileSample rows at
	// flush time. Off by default — profiling is opt-in per agent group,
	// as in production DeepFlow.
	EnableProfiling   bool
	ProfileFreqHz     int // sampling frequency (default 99 Hz)
	ProfileStackDepth int // frames kept per stack (default 32)

	// SelfmonOff disables the hot-path self-monitoring increments. It
	// exists only so the instrumentation-overhead guard benchmark can
	// measure an uninstrumented baseline; production deployments leave it
	// false.
	SelfmonOff bool

	// SessionWindow overrides the session-aggregation time-slot duration
	// (paper §3.3.1; 60 s in production, the zero-value default). Unanswered
	// requests — timeouts, reset connections — surface as timeout spans only
	// after their slot expires, so deployments running continuous detection
	// shorten this to the flush cadence: the failure evidence then reaches
	// the rollup stream within the alerting plane's evaluation delay.
	SessionWindow time.Duration

	// ProxyProcesses are process-name substrings of event-loop proxies
	// (paper §3.3.2: for HAProxy, Envoy, and Nginx "DeepFlow utilizes its
	// original capabilities to generate X-Request-IDs ... preserving the
	// association of spans across threads"). Their spans skip
	// thread-based systrace assignment, which is meaningless on an event
	// loop, and associate through X-Request-IDs instead.
	ProxyProcesses []string
}

// DefaultConfig returns a full-function agent configuration with overhead
// constants taken from our measured Fig. 13 results (sub-microsecond per
// hook, as in the paper's 277–889 ns range).
func DefaultConfig() Config {
	return Config{
		Mode:           ModeFull,
		EnablePacket:   true,
		PerfCapacity:   65536,
		HookCost:       300 * time.Nanosecond,
		AgentCost:      150 * time.Nanosecond,
		ProxyProcesses: []string{"nginx", "envoy", "haproxy"},
	}
}

// Agent is one deployed DeepFlow agent on one host.
type Agent struct {
	Host *simnet.Host
	Cfg  Config

	Progs   *Programs
	tracer  *SysTracer
	sysSess *Sessionizer
	nicSess *Sessionizer

	// out buffers one flush window of output and ships it to the sink as
	// one wire batch; nil when the agent has no sink.
	out *batchShipper

	flows      map[trace.FiveTuple]*flowMetrics
	sockTuples map[trace.SocketID]trace.FiveTuple

	scratch []byte
	atts    []*simkernel.Attachment
	tap     *simnet.Tap

	// Profiler is the continuous-profiling plane (nil unless
	// Config.EnableProfiling); profScratch is its marshalling buffer.
	Profiler    *profiling.Profiler
	profScratch []byte

	// Stats.
	SpansEmitted  int
	EventsHandled int
	PacketsSeen   uint64

	// HookErrors counts hook-program failures. A failing program is
	// skipped for that event instead of killing the agent; the error is
	// visible here and in the deepflow_agent_hook_errors series.
	HookErrors uint64

	// CPUTime accumulates real wall-clock time spent inside the agent's
	// own code paths (hook execution plus user-space processing) — the
	// resource self-accounting behind the Fig. 19(c) CPU panels.
	CPUTime time.Duration

	// Mon is the agent's self-monitoring registry (host/component-tagged
	// counters, gauges, and histograms for every pipeline stage).
	Mon   *selfmon.Registry
	monOn bool

	// Pre-resolved hot-path metric handles (one atomic add each).
	hookEvents    [16][4]*selfmon.Counter // [ABI][Phase]
	mUprobeEvents *selfmon.Counter
	mEvents       *selfmon.Counter
	mSpans        *selfmon.Counter
	mPackets      *selfmon.Counter
	mFlushDur     *selfmon.Histogram
}

type flowMetrics struct {
	total     trace.NetMetrics
	lastFlush trace.NetMetrics
}

// New creates an agent for host delivering to sink.
func New(host *simnet.Host, cfg Config, sink Sink) (*Agent, error) {
	if cfg.PerfCapacity == 0 {
		cfg.PerfCapacity = 65536
	}
	a := &Agent{
		Host:       host,
		Cfg:        cfg,
		flows:      make(map[trace.FiveTuple]*flowMetrics),
		sockTuples: make(map[trace.SocketID]trace.FiveTuple),
		scratch:    make([]byte, simkernel.CtxSize),
	}
	if sink != nil {
		a.out = &batchShipper{sink: sink}
	}
	ids := host.Net.IDs
	a.tracer = NewSysTracer(ids)
	a.sysSess = NewSessionizer(ids, a.tracer, cfg.ExtraCodecs, a.emitSpan)
	a.nicSess = NewSessionizer(ids, nil, cfg.ExtraCodecs, a.emitSpan)
	if cfg.SessionWindow > 0 {
		a.sysSess.SetWindow(cfg.SessionWindow)
		a.nicSess.SetWindow(cfg.SessionWindow)
	}
	progs, err := BuildPrograms(cfg.PerfCapacity)
	if err != nil {
		return nil, err
	}
	progs.VM.Clock = func() int64 { return int64(host.Net.Eng.Elapsed()) }
	a.Progs = progs
	if cfg.EnableProfiling {
		prof, err := profiling.New(progs.VM, profiling.Config{StackDepth: cfg.ProfileStackDepth})
		if err != nil {
			return nil, err
		}
		a.Profiler = prof
		a.profScratch = make([]byte, simkernel.CtxSize)
	}
	a.instrument()
	return a, nil
}

// instrument registers the agent's self-metrics (counters for every hook and
// pipeline stage, gauges over VM and perf-buffer state) under this host's
// uniform tags and pre-resolves the hot-path handles.
func (a *Agent) instrument() {
	mon := selfmon.New(a.Host.Name, "agent")
	a.Mon = mon
	a.monOn = !a.Cfg.SelfmonOff

	a.mEvents = mon.Counter("deepflow_agent_events_handled")
	a.mSpans = mon.Counter("deepflow_agent_spans_emitted")
	a.mPackets = mon.Counter("deepflow_agent_packets_seen")
	a.mUprobeEvents = mon.Counter("deepflow_agent_hook_events", selfmon.Tag{K: "hook", V: "ssl(uprobe)"})
	a.mFlushDur = mon.Histogram("deepflow_agent_flush_seconds", selfmon.DurationBuckets())
	for _, abi := range append(append([]simkernel.ABI{}, simkernel.IngressABIs...), simkernel.EgressABIs...) {
		for _, ph := range []simkernel.Phase{simkernel.PhaseEnter, simkernel.PhaseExit} {
			a.hookEvents[abi][ph] = mon.Counter("deepflow_agent_hook_events",
				selfmon.Tag{K: "hook", V: abi.String() + "/" + ph.String()})
		}
	}

	perf := a.Progs.Perf
	mon.GaugeFunc("deepflow_agent_perf_emitted", func() float64 { return float64(perf.Emitted()) })
	mon.GaugeFunc("deepflow_agent_perf_lost", func() float64 { return float64(perf.Lost()) })
	mon.GaugeFunc("deepflow_agent_perf_pending", func() float64 { return float64(perf.Pending()) })
	vm := a.Progs.VM
	mon.GaugeFunc("deepflow_agent_vm_instructions", func() float64 { return float64(vm.InstCount) })
	mon.GaugeFunc("deepflow_agent_vm_map_ops", func() float64 { return float64(vm.MapOps) })
	mon.GaugeFunc("deepflow_agent_vm_perf_outputs", func() float64 { return float64(vm.PerfOutputs) })
	mon.GaugeFunc("deepflow_agent_inflight_entries", func() float64 { return float64(a.Progs.InFlight.Len()) })
	mon.GaugeFunc("deepflow_agent_flowstats_entries", func() float64 { return float64(a.Progs.Stats.Len()) })
	mon.GaugeFunc("deepflow_agent_cpu_seconds", func() float64 { return a.CPUTime.Seconds() })
	mon.GaugeFunc("deepflow_agent_hook_errors_total", func() float64 { return float64(a.HookErrors) })

	// Verifier analysis stats per hook program: static after Start, but
	// exported as gauges so a program growing past its complexity budget is
	// visible in the same place as every other agent metric.
	verifierProgs := a.Progs.All()
	if a.Profiler != nil {
		verifierProgs = append(verifierProgs, a.Profiler.Prog)
	}
	for _, p := range verifierProgs {
		p := p
		tag := selfmon.Tag{K: "prog", V: p.Name}
		mon.GaugeFunc("deepflow_agent_verifier_insts", func() float64 { return float64(p.Stats.Insts) }, tag)
		mon.GaugeFunc("deepflow_agent_verifier_states_explored", func() float64 { return float64(p.Stats.StatesExplored) }, tag)
		mon.GaugeFunc("deepflow_agent_verifier_states_pruned", func() float64 { return float64(p.Stats.StatesPruned) }, tag)
		mon.GaugeFunc("deepflow_agent_verifier_peak_stack_bytes", func() float64 { return float64(p.Stats.PeakStackBytes) }, tag)
	}

	if prof := a.Profiler; prof != nil {
		mon.GaugeFunc("deepflow_agent_profile_samples", func() float64 { return float64(prof.SamplesRun) })
		mon.GaugeFunc("deepflow_agent_profile_stack_evictions", func() float64 { return float64(prof.Stacks.Collisions) })
		mon.GaugeFunc("deepflow_agent_profile_stacks_truncated", func() float64 { return float64(prof.Stacks.Truncations) })
		mon.GaugeFunc("deepflow_agent_profile_stacks_interned", func() float64 { return float64(prof.Stacks.Len()) })
	}

	if bs := a.out; bs != nil {
		bs.shipped = mon.Counter("deepflow_agent_batches_shipped")
		bs.bytes = mon.Counter("deepflow_agent_batch_bytes")
		bs.errors = mon.Counter("deepflow_agent_batch_errors")
	}

	if a.monOn {
		a.sysSess.instrument(mon, "syscall")
		a.nicSess.instrument(mon, "packet")
	}
}

// WriteStats dumps the agent's self-metrics as Prometheus-style text — the
// human-readable exposition behind `deepflow -stats`.
func (a *Agent) WriteStats(w io.Writer) error { return a.Mon.WriteProm(w) }

// Start deploys the agent: verifies and attaches hook programs on the
// host's kernel (zero code, in-flight — no process restarts), registers the
// NIC tap, and begins exporting. Safe to call while workloads are running,
// matching the paper's on-the-fly deployment (§4.1.1).
func (a *Agent) Start() error {
	if a.Cfg.Mode == ModeOff {
		return nil
	}
	k := a.Host.Kernel
	k.HookCost = a.Cfg.HookCost
	if a.Cfg.Mode == ModeFull {
		k.HookCost += a.Cfg.AgentCost
	}

	attach := func(abi simkernel.ABI, phase simkernel.Phase, kind simkernel.AttachKind, prog string, fn simkernel.HookFn) error {
		at, err := k.AttachSyscall(abi, phase, kind, prog, fn)
		if err != nil {
			return err
		}
		a.atts = append(a.atts, at)
		return nil
	}

	for _, abi := range append(append([]simkernel.ABI{}, simkernel.IngressABIs...), simkernel.EgressABIs...) {
		// read/write family attaches via tracepoints, the *msg/*v family
		// via kprobes, mirroring the mix of Fig. 13(a).
		kind := simkernel.AttachKprobe
		if abi == simkernel.ABIRead || abi == simkernel.ABIWrite {
			kind = simkernel.AttachTracepoint
		}
		if err := attach(abi, simkernel.PhaseEnter, kind, "df_sys_enter", a.onEnter); err != nil {
			return err
		}
		if err := attach(abi, simkernel.PhaseExit, kind, "df_sys_exit", a.onExit); err != nil {
			return err
		}
	}

	if a.Cfg.EnableUprobe {
		for _, sym := range []string{"ssl_read", "ssl_write"} {
			at, err := k.AttachUprobe(sym, simkernel.AttachUprobe, "df_uprobe", a.onUprobe)
			if err != nil {
				return err
			}
			a.atts = append(a.atts, at)
		}
	}

	k.OnCoroutineCreate(func(_ *simkernel.Process, parent, child uint64) {
		a.tracer.ObserveCoroutine(parent, child)
	})

	if a.Profiler != nil {
		freq := a.Cfg.ProfileFreqHz
		if freq <= 0 {
			freq = 99
		}
		// Each delivered sample steals about one hook execution of CPU.
		k.SampleCost = a.Cfg.HookCost
		at, err := k.AttachPerfEvent(freq, "df_profile", a.onSample)
		if err != nil {
			return err
		}
		a.atts = append(a.atts, at)
	}

	if a.Cfg.EnablePacket {
		a.tap = a.Host.NIC.AddTap(a.onPacket)
	}
	return nil
}

// Stop detaches every hook and tap.
func (a *Agent) Stop() {
	for _, at := range a.atts {
		at.Detach()
	}
	a.atts = nil
	if a.tap != nil {
		a.tap.Close()
		a.tap = nil
	}
	a.Host.Kernel.HookCost = 0
	a.Host.Kernel.SampleCost = 0
}

// onSample runs the verified sampling program for one perf-event hit.
func (a *Agent) onSample(ctx *simkernel.HookContext) {
	t0 := time.Now()
	if err := a.Profiler.OnSample(ctx, a.profScratch); err != nil {
		a.hookError("df_profile")
	}
	a.CPUTime += time.Since(t0)
}

func (a *Agent) onEnter(ctx *simkernel.HookContext) {
	t0 := time.Now()
	a.countHook(ctx)
	if err := a.Progs.RunHook(a.Progs.Enter, ctx, a.scratch); err != nil {
		a.hookError("df_sys_enter")
	}
	a.CPUTime += time.Since(t0)
}

func (a *Agent) onExit(ctx *simkernel.HookContext) {
	t0 := time.Now()
	a.countHook(ctx)
	if err := a.Progs.RunHook(a.Progs.Exit, ctx, a.scratch); err != nil {
		a.hookError("df_sys_exit")
	}
	if err := a.Progs.RunHook(a.Progs.FlowStats, ctx, a.scratch); err != nil {
		a.hookError("df_flow_stats")
	}
	a.drainPerf()
	a.CPUTime += time.Since(t0)
}

func (a *Agent) onUprobe(ctx *simkernel.HookContext) {
	t0 := time.Now()
	if a.monOn {
		a.mUprobeEvents.Inc()
	}
	if err := a.Progs.RunHook(a.Progs.Uprobe, ctx, a.scratch); err != nil {
		a.hookError("df_uprobe")
	}
	a.drainPerf()
	a.CPUTime += time.Since(t0)
}

// countHook accounts one hook firing under its ABI/phase tag.
func (a *Agent) countHook(ctx *simkernel.HookContext) {
	if !a.monOn {
		return
	}
	if int(ctx.ABI) < len(a.hookEvents) && int(ctx.Phase) < len(a.hookEvents[0]) {
		if c := a.hookEvents[ctx.ABI][ctx.Phase]; c != nil {
			c.Inc()
		}
	}
}

// hookError accounts a hook-program failure and skips the event: one bad
// program run must not kill the whole agent (the pre-selfmon behaviour was
// a panic). The failure stays visible through HookErrors and the
// deepflow_agent_hook_errors series.
func (a *Agent) hookError(prog string) {
	a.HookErrors++
	if a.monOn {
		a.Mon.Counter("deepflow_agent_hook_errors", selfmon.Tag{K: "hook", V: prog}).Inc()
	}
}

// drainPerf moves perf records into the user-space pipeline.
func (a *Agent) drainPerf() {
	recs := a.Progs.Perf.Drain()
	if a.Cfg.Mode != ModeFull {
		return // eBPF-only mode: capture without user-space processing
	}
	for _, rec := range recs {
		ctx := simkernel.UnmarshalContext(rec)
		a.handleEvent(&ctx)
	}
}

// handleEvent converts one exit-phase hook context into a message event and
// feeds the syscall sessionizer.
func (a *Agent) handleEvent(ctx *simkernel.HookContext) {
	a.EventsHandled++
	if a.monOn {
		a.mEvents.Inc()
	}
	if ctx.DataLen < 0 || len(ctx.Payload) == 0 {
		return // failed or zero-length syscalls produce no message data
	}
	src := trace.SourceEBPF
	if ctx.Phase == simkernel.PhaseEnter {
		// Uprobe events arrive as enter-phase with payload.
		src = trace.SourceUProbe
	}
	ev := MessageEvent{
		Source:   src,
		Host:     a.Host.Name,
		Socket:   ctx.Socket,
		Tuple:    ctx.Tuple,
		Seq:      ctx.TCPSeq,
		Dir:      ctx.ABI.Direction(),
		Start:    nsTime(ctx.EnterNS),
		End:      nsTime(ctx.ExitNS),
		PID:      ctx.PID,
		TID:      ctx.TID,
		Coro:     ctx.CoroutineID,
		ProcName: ctx.ProcName,
		Payload:  ctx.Payload,
		DataLen:  int(ctx.DataLen),
	}
	if ev.Dir == trace.DirEgress {
		ev.TapSide = trace.TapClientProcess
	} else {
		ev.TapSide = trace.TapServerProcess
	}
	ev.NoThreadContext = a.isProxy(ctx.ProcName)
	a.sockTuples[ctx.Socket] = ctx.Tuple.Canonical()
	a.sysSess.Feed(ev)
}

// isProxy reports whether the process is a known event-loop proxy.
func (a *Agent) isProxy(name string) bool {
	for _, p := range a.Cfg.ProxyProcesses {
		if strings.Contains(name, p) {
			return true
		}
	}
	return false
}

// onPacket handles NIC tap captures: data packets feed the packet
// sessionizer (device-level spans); control/fault packets feed the flow
// metrics aggregator. Records arriving through a switch mirror (Fig. 18)
// keep their origin NIC identity, so spans are attributed to the mirrored
// device rather than the capture machine.
func (a *Agent) onPacket(rec simnet.PacketRecord) {
	t0 := time.Now()
	defer func() { a.CPUTime += time.Since(t0) }()
	a.PacketsSeen++
	if a.monOn {
		a.mPackets.Inc()
	}
	origin := a.Host
	if rec.Host != "" && rec.Host != a.Host.Name {
		if h := a.Host.Net.Host(rec.Host); h != nil {
			origin = h
		}
	}
	key := rec.Tuple.Canonical()
	fm := a.flows[key]
	if fm == nil {
		fm = &flowMetrics{}
		a.flows[key] = fm
	}
	switch rec.Kind {
	case simnet.PktRetrans:
		fm.total.Retransmissions++
	case simnet.PktRST:
		fm.total.Resets++
	case simnet.PktARP:
		fm.total.ARPRequests++
	case simnet.PktData:
		// Direction relative to the capture NIC: packets sent by (or under)
		// the origin host are egress, everything else ingress. Constant per
		// flow side, so the sessionizer can learn the request direction and
		// skip its fast-path probe on request-bearing packets.
		dir := trace.DirIngress
		if senderIsUnder(origin, rec.Tuple.SrcIP) {
			dir = trace.DirEgress
			fm.total.BytesSent += uint64(rec.Len)
		} else {
			fm.total.BytesReceived += uint64(rec.Len)
		}
		if a.Cfg.Mode != ModeFull || !rec.First {
			return
		}
		ev := MessageEvent{
			Source:  trace.SourcePacket,
			TapSide: tapSideOf(origin, rec.Tuple),
			Host:    origin.Name,
			Tuple:   rec.Tuple,
			Seq:     rec.Seq,
			Start:   rec.TS,
			End:     rec.TS,
			Dir:     dir,
			Payload: rec.Payload,
			DataLen: rec.Len,
		}
		a.nicSess.Feed(ev)
	}
}

// tapSideOf classifies a NIC's position relative to the packet's sender:
// if the sender runs on (or under) the capture-origin host, a request seen
// here is on the client side of the path.
func tapSideOf(origin *simnet.Host, t trace.FiveTuple) trace.TapSide {
	local := senderIsUnder(origin, t.SrcIP)
	switch origin.Kind {
	case simnet.KindPod:
		if local {
			return trace.TapClientNIC
		}
		return trace.TapServerNIC
	case simnet.KindNode, simnet.KindMachine:
		if local {
			return trace.TapClientNode
		}
		return trace.TapServerNode
	case simnet.KindGateway:
		return trace.TapGateway
	default:
		return trace.TapUnknown
	}
}

// senderIsUnder reports whether ip belongs to origin or a host nested
// under it (a pod on this node).
func senderIsUnder(origin *simnet.Host, ip trace.IP) bool {
	h := origin.Net.HostByIP(ip)
	for ; h != nil; h = h.Parent {
		if h == origin {
			return true
		}
	}
	return false
}

// emitSpan finalizes a span: orient packet spans, inject phase-1 smart
// encoding tags, attach flow metrics, and ship to the sink.
func (a *Agent) emitSpan(sp *trace.Span) {
	a.SpansEmitted++
	if a.monOn {
		a.mSpans.Inc()
	}
	sp.Resource.VPCID = a.Cfg.VPCID
	sp.Resource.IP = a.Host.IP
	// Mirrored captures attribute to the origin device (Fig. 18).
	if sp.HostName != "" && sp.HostName != a.Host.Name {
		if h := a.Host.Net.Host(sp.HostName); h != nil {
			sp.Resource.IP = h.IP
		}
	}
	if fm := a.flows[sp.Flow.Canonical()]; fm != nil {
		sp.Net = fm.total
	}
	if a.out != nil {
		a.out.span(sp)
	}
}

// IngestOTel integrates a third-party framework span (paper §3.3.2,
// "Third-Party Span Integration").
func (a *Agent) IngestOTel(sp *trace.Span) {
	sp.Source = trace.SourceOTel
	sp.TapSide = trace.TapApp
	if sp.HostName == "" {
		sp.HostName = a.Host.Name
	}
	a.emitSpan(sp)
}

// Flush expires stale sessions and exports flow-metric deltas; the
// deployment calls it periodically and at shutdown. Each flush's wall-clock
// cost is recorded in the deepflow_agent_flush_seconds histogram.
func (a *Agent) Flush(now time.Time) {
	t0 := time.Now()
	a.sysSess.Flush(now)
	a.nicSess.Flush(now)
	a.flushFlows(now)
	a.flushProfiles()
	a.shipOut()
	if a.monOn {
		a.mFlushDur.ObserveDuration(time.Since(t0))
	}
}

// PathStats sums the pipeline-split counters — fast-path response hits,
// slow-path (full-parse) messages, and inference give-ups — over this
// agent's syscall and packet sessionizers.
func (a *Agent) PathStats() (fastHits, slowMsgs, giveups int) {
	for _, sz := range []*Sessionizer{a.sysSess, a.nicSess} {
		if sz == nil {
			continue
		}
		fastHits += sz.FastPathHits
		slowMsgs += sz.SlowPathMsgs
		giveups += sz.InferGiveups
	}
	return fastHits, slowMsgs, giveups
}

// FlushAll force-completes every open session (end of experiment).
func (a *Agent) FlushAll() {
	t0 := time.Now()
	a.sysSess.FlushAll()
	a.nicSess.FlushAll()
	a.flushFlows(a.Host.Net.Eng.Now())
	a.flushProfiles()
	a.shipOut()
	if a.monOn {
		a.mFlushDur.ObserveDuration(time.Since(t0))
	}
}

// shipOut closes the current flush window: the buffered batch is encoded
// and shipped in one IngestBatch call (the paper's once-per-window export).
func (a *Agent) shipOut() {
	if a.out != nil {
		a.out.ship(a.Host.Name)
	}
}

// flushProfiles scrapes the profiler's count map into tagged sample rows
// (the profiling analogue of flushFlows' scrape-and-clear cycle). The agent
// contributes the phase-1 tags — VPC and host IP — exactly as emitSpan
// does; the server's registry expands them to pod/service under smart
// encoding, so profiles share the spans' tag vocabulary for free.
func (a *Agent) flushProfiles() {
	if a.Profiler == nil || a.out == nil {
		return
	}
	for _, s := range a.Profiler.Scrape(a.Host.Name) {
		if p := a.Host.Kernel.Process(s.PID); p != nil {
			s.ProcName = p.Name
		}
		s.Resource.VPCID = a.Cfg.VPCID
		s.Resource.IP = a.Host.IP
		a.out.profile(s)
	}
}

func (a *Agent) flushFlows(now time.Time) {
	if a.out == nil {
		return
	}
	// In-kernel aggregated flow statistics (scrape-and-clear).
	for sock, stat := range a.Progs.ScrapeFlowStats() {
		tuple, ok := a.sockTuples[trace.SocketID(sock)]
		if !ok {
			continue
		}
		a.out.flow(FlowSample{
			TS: now, Host: a.Host.Name, NIC: a.Host.NIC.Name,
			Tuple: tuple, KernelPackets: stat.Packets, KernelBytes: stat.Bytes,
		})
	}
	for tuple, fm := range a.flows {
		delta := diffMetrics(fm.total, fm.lastFlush)
		if delta == (trace.NetMetrics{}) {
			continue
		}
		fm.lastFlush = fm.total
		a.out.flow(FlowSample{
			TS: now, Host: a.Host.Name, NIC: a.Host.NIC.Name,
			Tuple: tuple, Delta: delta,
		})
	}
}

func diffMetrics(cur, prev trace.NetMetrics) trace.NetMetrics {
	return trace.NetMetrics{
		Retransmissions: cur.Retransmissions - prev.Retransmissions,
		Resets:          cur.Resets - prev.Resets,
		ZeroWindows:     cur.ZeroWindows - prev.ZeroWindows,
		RTT:             cur.RTT,
		BytesSent:       cur.BytesSent - prev.BytesSent,
		BytesReceived:   cur.BytesReceived - prev.BytesReceived,
		ARPRequests:     cur.ARPRequests - prev.ARPRequests,
	}
}

func nsTime(ns int64) time.Time { return sim.Epoch.Add(time.Duration(ns)) }
