package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"deepflow/internal/agent"
	"deepflow/internal/critpath"
	"deepflow/internal/dstore"
	"deepflow/internal/protocols"
	"deepflow/internal/rollup"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/simkernel"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// Layer replays: each times one layer's public entry point over recorded
// inputs, outside the pipeline, so the ledger can say which layer owns a
// change in an end-to-end number. replayPasses runs follow one discarded
// warm-up pass and the fastest is reported — a replay is single-threaded
// fixed work, so interference only ever slows a pass.
const replayPasses = 3

// bestOf times pass (after one warm-up) and returns the fastest run.
func bestOf(k *track, name string, pass func()) time.Duration {
	defer k.span("replay." + name)()
	pass()
	best := time.Duration(0)
	for i := 0; i < replayPasses; i++ {
		runtime.GC()
		t0 := time.Now()
		pass()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func perItem(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// hostEvent is a MessageEvent rebuilt from a recorded hook context.
type hostEvent struct {
	host string
	ev   agent.MessageEvent
}

// rebuildEvents turns the recorded hook contexts into the message events
// the agent's user-space half would see. It mirrors Agent.handleEvent,
// including the trip through the marshalled perf record that truncates the
// payload to its prefix — this is harness glue, so the fidelity check
// below holds it to what the real agent produced.
func rebuildEvents(hooks []hookRec) []hostEvent {
	proxies := agentConfig().ProxyProcesses
	scratch := make([]byte, simkernel.CtxSize)
	var out []hostEvent
	for i := range hooks {
		h := &hooks[i]
		// Syscall data arrives on exit; uprobe plaintext on enter.
		if h.ctx.Phase != simkernel.PhaseExit && !h.uprobe {
			continue
		}
		ctx := simkernel.UnmarshalContext(h.ctx.Marshal(scratch))
		if ctx.DataLen < 0 || len(ctx.Payload) == 0 {
			continue
		}
		ev := agent.MessageEvent{
			Source: trace.SourceEBPF, Host: h.host,
			Socket: ctx.Socket, Tuple: ctx.Tuple, Seq: ctx.TCPSeq,
			Dir:   ctx.ABI.Direction(),
			Start: sim.Epoch.Add(time.Duration(ctx.EnterNS)), End: sim.Epoch.Add(time.Duration(ctx.ExitNS)),
			PID: ctx.PID, TID: ctx.TID, Coro: ctx.CoroutineID, ProcName: ctx.ProcName,
			Payload: ctx.Payload, DataLen: int(ctx.DataLen),
		}
		if h.uprobe {
			ev.Source = trace.SourceUProbe
		}
		ev.TapSide = trace.TapServerProcess
		if ev.Dir == trace.DirEgress {
			ev.TapSide = trace.TapClientProcess
		}
		for _, p := range proxies {
			if strings.Contains(ctx.ProcName, p) {
				ev.NoThreadContext = true
			}
		}
		out = append(out, hostEvent{host: h.host, ev: ev})
	}
	return out
}

// churned rewrites every request/response pair onto a socket of its own:
// the same messages, but protocol inference runs per pair and the fast
// path, which needs an established flow, never hits.
func churned(evs []hostEvent) []hostEvent {
	type flow struct {
		host string
		sock trace.SocketID
	}
	seen := map[flow]int{}
	out := make([]hostEvent, len(evs))
	next := trace.SocketID(1 << 40)
	ids := map[flow]trace.SocketID{}
	for i, he := range evs {
		f := flow{he.host, he.ev.Socket}
		n := seen[f]
		seen[f] = n + 1
		if n%2 == 0 {
			next++
			ids[f] = next
		}
		he.ev.Socket = ids[f]
		out[i] = he
	}
	return out
}

// feedAll runs the events through one fresh sessionizer per host, as the
// agents do, and returns the spans emitted per protocol.
func feedAll(evs []hostEvent) (byProto map[trace.L7Proto]int, fast, slow int) {
	byProto = map[trace.L7Proto]int{}
	ids := &trace.IDAllocator{}
	szs := map[string]*agent.Sessionizer{}
	for i := range evs {
		sz := szs[evs[i].host]
		if sz == nil {
			sz = agent.NewSessionizer(ids, agent.NewSysTracer(ids), nil, func(sp *trace.Span) { byProto[sp.L7]++ })
			szs[evs[i].host] = sz
		}
		sz.Feed(evs[i].ev)
	}
	for _, sz := range szs {
		sz.FlushAll()
		fast += sz.FastPathHits
		slow += sz.SlowPathMsgs
	}
	return byProto, fast, slow
}

// agentReplays fills the agent-side ledger rows from a corpus recorded
// with hook contexts, and runs the glue-fidelity check.
func agentReplays(c *corpus, r *report, k *track) error {
	// ebpfvm: verify+build, then the three hook programs over every
	// recorded context, perf ring drained as the agent drains it.
	var builds []float64
	var progs *agent.Programs
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		p, err := agent.BuildPrograms(65536)
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		progs = p
	}
	r.set("ebpfvm.build_verify_ms", median(builds), "median of 5 BuildPrograms")
	scratch := make([]byte, simkernel.CtxSize)
	var hookErr error
	hookPass := func() {
		for i := range c.hooks {
			h := &c.hooks[i]
			var err error
			switch {
			case h.uprobe:
				err = progs.RunHook(progs.Uprobe, &h.ctx, scratch)
			case h.ctx.Phase == simkernel.PhaseEnter:
				err = progs.RunHook(progs.Enter, &h.ctx, scratch)
			default:
				if err = progs.RunHook(progs.Exit, &h.ctx, scratch); err == nil {
					err = progs.RunHook(progs.FlowStats, &h.ctx, scratch)
				}
			}
			if err != nil {
				hookErr = err
			}
			progs.Perf.Drain()
		}
	}
	d := bestOf(k, "ebpfvm.run_hook", hookPass)
	if hookErr != nil {
		return fmt.Errorf("hook replay: %w", hookErr)
	}
	r.set("ebpfvm.hook_ns_per_event", perItem(d, len(c.hooks)), fmt.Sprintf("best of %d passes over %d hook firings", replayPasses, len(c.hooks)))

	// agent: Sessionizer.Feed over the rebuilt events, steady then churned.
	evs := rebuildEvents(c.hooks)
	var got map[trace.L7Proto]int
	var fast, slow int
	d = bestOf(k, "agent.feed_steady", func() { got, fast, slow = feedAll(evs) })
	r.set("agent.feed_ns_per_msg_steady", perItem(d, len(evs)), fmt.Sprintf("best of %d passes over %d messages", replayPasses, len(evs)))
	if fast+slow > 0 {
		r.set("agent.replay_fastpath_hit_ratio", float64(fast)/float64(fast+slow), "steady replay")
	}
	// Glue fidelity: the replay must produce the spans the real agents
	// produced from the same syscalls, protocol by protocol.
	for proto, want := range c.sysSpans {
		if got[proto] != want {
			r.problem("glue fidelity: replay emitted %d %v spans, agents shipped %d", got[proto], proto, want)
		}
	}
	for proto, n := range got {
		if _, ok := c.sysSpans[proto]; !ok {
			r.problem("glue fidelity: replay emitted %d %v spans, agents shipped none", n, proto)
		}
	}
	churn := churned(evs)
	d = bestOf(k, "agent.feed_churn", func() { feedAll(churn) })
	r.set("agent.feed_ns_per_msg_churn", perItem(d, len(churn)), fmt.Sprintf("best of %d passes, fresh socket per request/response pair", replayPasses))
	if r.metrics["agent.feed_ns_per_msg_churn"] <= r.metrics["agent.feed_ns_per_msg_steady"] {
		r.problem("separation: churned feed (%.0f ns/msg) is not slower than steady (%.0f): the churn replay no longer leaves the fast path and the cached inference",
			r.metrics["agent.feed_ns_per_msg_churn"], r.metrics["agent.feed_ns_per_msg_steady"])
	}

	// protocols: full Parse per message with the flow's codec resolved
	// beforehand, and inference alone over each flow's first payload.
	table := protocols.Default()
	type flowKey struct {
		host string
		sock trace.SocketID
	}
	codecOf := map[flowKey]protocols.Codec{}
	var firsts [][]byte
	codecs := make([]protocols.Codec, len(evs))
	for i, he := range evs {
		fk := flowKey{he.host, he.ev.Socket}
		cd, ok := codecOf[fk]
		if !ok {
			if e := table.InferEntry(he.ev.Payload); e != nil {
				cd = e.Codec
			}
			codecOf[fk] = cd
			firsts = append(firsts, he.ev.Payload)
		}
		codecs[i] = cd
	}
	parsed := 0
	d = bestOf(k, "protocols.parse", func() {
		parsed = 0
		for i := range evs {
			if codecs[i] != nil {
				if _, err := codecs[i].Parse(evs[i].ev.Payload); err == nil {
					parsed++
				}
			}
		}
	})
	r.set("protocols.parse_ns_per_msg", perItem(d, parsed), fmt.Sprintf("best of %d passes over %d parsable messages", replayPasses, parsed))
	const inferRounds = 200
	d = bestOf(k, "protocols.infer", func() {
		for n := 0; n < inferRounds; n++ {
			for _, p := range firsts {
				table.InferEntry(p)
			}
		}
	})
	r.set("protocols.infer_ns_per_flow", perItem(d, inferRounds*len(firsts)), fmt.Sprintf("best of %d passes over %d flows x%d", replayPasses, len(firsts), inferRounds))

	// transport: encode the decoded batches back to the wire.
	decoded, spans, err := c.decodeAll()
	if err != nil {
		return err
	}
	d = bestOf(k, "transport.encode", func() {
		for _, b := range decoded {
			transport.Encode(b)
		}
	})
	r.set("transport.encode_ns_per_span", perItem(d, spans), fmt.Sprintf("best of %d passes over %d spans", replayPasses, spans))
	return nil
}

// decodeAll decodes every recorded batch.
func (c *corpus) decodeAll() ([]*transport.Batch, int, error) {
	out := make([]*transport.Batch, 0, len(c.batches))
	spans := 0
	for _, wb := range c.batches {
		b, err := transport.Decode(wb.data)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, b)
		spans += len(b.Spans)
	}
	return out, spans, nil
}

// memIngest replays the corpus closed-loop into a fresh memory-only server
// and returns the wall time from the first IngestBatch to Drain.
func memIngest(c *corpus, shards int) (*server.Server, time.Duration, error) {
	srv := server.NewSharded(c.reg, server.EncodingSmart, 0, shards)
	runtime.GC()
	t0 := time.Now()
	for _, wb := range c.batches {
		if err := srv.IngestBatch(wb.data); err != nil {
			srv.Close()
			return nil, 0, err
		}
	}
	srv.Drain()
	return srv, time.Since(t0), nil
}

// serverReplays fills the server-side ledger rows: wire decode, memory-only
// ingest at one and two shards (durable minus memory is dstore's share),
// the retention tick, dstore's WAL, block codec and both replay paths, and
// the rollup.
func serverReplays(c *corpus, dir string, r *report, k *track) error {
	d := bestOf(k, "transport.decode", func() {
		for _, wb := range c.batches {
			if _, err := transport.Decode(wb.data); err != nil {
				panic(err) // the corpus decoded when it was recorded
			}
		}
	})
	r.set("transport.decode_ns_per_span", perItem(d, c.spans), fmt.Sprintf("best of %d passes over %d spans", replayPasses, c.spans))
	r.set("transport.batch_spans_mean", float64(c.spans)/float64(len(c.batches)), fmt.Sprintf("%d batches", len(c.batches)))

	for _, shards := range []int{1, 2} {
		best := time.Duration(0)
		for i := 0; i <= replayPasses; i++ { // pass 0 warms up
			end := k.span("replay.server.ingest_mem")
			m0 := mallocs()
			srv, wall, err := memIngest(c, shards)
			end()
			if err != nil {
				return err
			}
			if shards == 1 && i == replayPasses {
				r.set("server.allocs_per_span", float64(mallocs()-m0)/float64(c.spans), "one 1-shard memory ingest")
				r.set("storage.shadow_bytes_per_span", monValue(srv, "deepflow_server_storage_mem_bytes")/float64(c.spans), "Table.MemBytes over all partitions")
				t0 := time.Now()
				endR := k.span("replay.server.retention")
				res := srv.ApplyRetention(sim.Epoch.Add(c.loadVirt/10), time.Nanosecond, 0)
				endR()
				r.set("server.retention_tick_ms", ms(time.Since(t0)), fmt.Sprintf("one ApplyRetention evicting %d of %d spans", res.MemSpans, c.spans))
			}
			srv.Close()
			if i > 0 && (best == 0 || wall < best) {
				best = wall
			}
		}
		r.set(fmt.Sprintf("server.ingest_mem_%dshard_spans_per_s", shards), float64(c.spans)/best.Seconds(), fmt.Sprintf("best of %d memory-only ingests", replayPasses))
	}

	decoded, _, err := c.decodeAll()
	if err != nil {
		return err
	}

	// dstore: a shard that never seals is the WAL alone; crash it and
	// reopen for the WAL replay path, close it cleanly and reopen for the
	// block replay path.
	cfg := dstore.DefaultConfig()
	cfg.SealSpans, cfg.SealBytes = c.spans+1, 1<<62
	var walAppend, walReplay, blkReplay []float64
	for i := 0; i <= replayPasses; i++ {
		shardDir := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		end := k.span("replay.dstore.wal")
		sh, _, err := dstore.Open(shardDir, cfg, nil)
		if err != nil {
			end()
			return err
		}
		runtime.GC()
		t0 := time.Now()
		for j, wb := range c.batches {
			if err := sh.Append(wb.data, decoded[j]); err != nil {
				end()
				return err
			}
		}
		appendDur := time.Since(t0)
		walBytes := sh.DiskBytes()
		sh.Abort()

		replayed := 0
		t0 = time.Now()
		sh, _, err = dstore.Open(shardDir, cfg, func(b *transport.Batch) { replayed += len(b.Spans) })
		walDur := time.Since(t0)
		if err != nil {
			end()
			return err
		}
		if replayed != c.spans {
			r.problem("dstore WAL replay returned %d spans, want %d", replayed, c.spans)
		}
		if err := sh.Close(); err != nil {
			end()
			return err
		}
		replayed = 0
		t0 = time.Now()
		sh, _, err = dstore.Open(shardDir, cfg, func(b *transport.Batch) { replayed += len(b.Spans) })
		blkDur := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		if replayed != c.spans {
			r.problem("dstore block replay returned %d spans, want %d", replayed, c.spans)
		}
		sh.Abort()
		if err := os.RemoveAll(shardDir); err != nil {
			return err
		}
		if i == 0 {
			r.set("dstore.wal_bytes_per_span", float64(walBytes)/float64(c.spans), "unsealed shard")
			continue
		}
		walAppend = append(walAppend, perItem(appendDur, c.spans))
		walReplay = append(walReplay, float64(c.spans)/walDur.Seconds())
		blkReplay = append(blkReplay, float64(c.spans)/blkDur.Seconds())
	}
	how := fmt.Sprintf("best of %d passes", replayPasses)
	r.set("dstore.wal_append_ns_per_span", minOf(walAppend), how+", group-commit fsync, no seals")
	r.set("dstore.replay_wal_spans_per_s", maxOf(walReplay), how)
	r.set("dstore.replay_block_spans_per_s", maxOf(blkReplay), how)

	// Block codec over memtable-sized runs of the corpus.
	var all []*trace.Span
	for _, b := range decoded {
		all = append(all, b.Spans...)
	}
	seal := dstore.DefaultConfig().SealSpans
	var images [][]byte
	d = bestOf(k, "dstore.encode_block", func() {
		images = images[:0]
		for off := 0; off < len(all); off += seal {
			images = append(images, dstore.EncodeBlock(all[off:min(off+seal, len(all))], nil, nil, dstore.EncDelta))
		}
	})
	r.set("dstore.encode_block_ns_per_span", perItem(d, len(all)), fmt.Sprintf("%s, %d-span blocks", how, seal))
	d = bestOf(k, "dstore.decode_block", func() {
		for _, img := range images {
			if _, _, _, err := dstore.DecodeBlock(img); err != nil {
				panic(err) // an image EncodeBlock just produced
			}
		}
	})
	r.set("dstore.decode_block_ns_per_span", perItem(d, len(all)), how)

	// rollup: one partial fed the enriched spans, as applyBatch feeds it.
	for _, sp := range all {
		sp.Resource = c.reg.Enrich(sp.Resource)
	}
	resolve := func(ip trace.IP) trace.ResourceTags { return c.reg.Enrich(trace.ResourceTags{IP: ip}) }
	var part *rollup.Partial
	d = bestOf(k, "rollup.observe", func() {
		part = rollup.NewPartial(resolve)
		for _, sp := range all {
			part.ObserveSpan(sp)
		}
	})
	r.set("rollup.observe_ns_per_span", perItem(d, len(all)), how)
	parts := []*rollup.Partial{part}
	d = bestOf(k, "rollup.collect", func() {
		rollup.CollectGroups(parts, sim.Epoch, sim.Epoch.Add(c.loadVirt))
	})
	r.set("rollup.collect_ms", ms(d), how)
	st := part.Snapshot()
	r.set("rollup.buckets", float64(st.FineBuckets+st.CoarseBuckets), "fine + coarse")
	return nil
}

// critpathReplay times critpath.Analyze alone over assembled traces.
func critpathReplay(srv *server.Server, roots []trace.SpanID, r *report, k *track) {
	var traces []*trace.Trace
	for _, id := range roots {
		if tr := srv.Trace(id); tr != nil && tr.Root != nil {
			traces = append(traces, tr)
		}
	}
	exact := 0
	d := bestOf(k, "critpath.analyze", func() {
		exact = 0
		for _, tr := range traces {
			if bd := critpath.Analyze(tr, critpath.Options{}); bd != nil && bd.Exact() {
				exact++
			}
		}
	})
	r.set("critpath.analyze_us_per_trace", perItem(d, len(traces))/1e3, fmt.Sprintf("best of %d passes over %d traces", replayPasses, len(traces)))
	if len(traces) > 0 {
		r.set("critpath.exact_fraction", float64(exact)/float64(len(traces)), fmt.Sprintf("%d traces", len(traces)))
	}
}

// monValue reads one of the server's own public counters by name, summed
// over its tag sets.
func monValue(srv *server.Server, name string) float64 {
	v := 0.0
	for _, s := range srv.Mon.Snapshot() {
		if s.Name == name {
			v += s.Value
		}
	}
	return v
}
