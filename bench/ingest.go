package main

import (
	"fmt"
	"time"

	"deepflow/internal/dstore"
	"deepflow/internal/server"
)

// ingest-durable: the recorded wire batches replayed closed-loop into a
// fresh two-shard server with the durable tier attached (default config:
// group-commit fsync, 4096-span seals), then a crash and a recovery, then a
// clean close. Decode, enrich, index, rollup, WAL, seal and compaction do
// all the work and the agent does none — the corpus is some fifty memtables
// deep, so the store is measured several seal and compaction cycles in.

// checkSessions is how many sessions fingerprint a server's answers.
const checkSessions = 4

type ingestState struct {
	c    *corpus
	plan *sessionPlan
	ref  []sessionDigest // the answers of a one-shard memory-only server
}

type ingestResult struct {
	wall, cpu, recoverDur time.Duration
	resident              uint64
	disk                  int64
	before                dstore.Stats // at the crash
	after                 dstore.Stats // after the clean close
}

// newDurable opens a fresh two-shard server over dir.
func newDurable(c *corpus, dir string, k *track) (*server.Server, dstore.ReplayStats, error) {
	defer k.span("server.attach_durable")()
	srv := server.NewSharded(c.reg, server.EncodingSmart, 0, 2)
	rs, err := srv.AttachDurable(dir, dstore.DefaultConfig())
	if err != nil {
		srv.Close()
		return nil, rs, err
	}
	return srv, rs, nil
}

// feed offers every batch, closed loop, and waits for the shards to drain.
func feed(srv *server.Server, batches []wireBatch, k *track) error {
	for _, wb := range batches {
		end := k.span("server.ingest_batch")
		err := srv.IngestBatch(wb.data)
		end()
		if err != nil {
			return err
		}
	}
	defer k.span("server.drain")()
	srv.Drain()
	return nil
}

// checkIngest holds a drained server to the corpus: every span ingested
// and stored, nothing dropped, nothing the WAL could not take.
func checkIngest(r *report, srv *server.Server, want int) {
	if got := srv.SpansIngested(); got != want {
		r.problem("SpansIngested = %d, agents emitted %d", got, want)
	}
	if got := srv.SpanCount(); got != want {
		r.problem("SpanCount = %d, agents emitted %d", got, want)
	}
	if n := monValue(srv, "deepflow_server_batch_errors") + monValue(srv, "deepflow_server_batches_dropped"); n != 0 {
		r.problem("%v batches failed to decode or were dropped", n)
	}
	if st := srv.DurableStats(); st.WALAppendErrors != 0 || st.TornTailDropped != 0 {
		r.problem("%d WAL append errors, %d torn-tail records", st.WALAppendErrors, st.TornTailDropped)
	}
}

// checkDigests runs the first checkSessions sessions and compares each
// digest with ref (filling ref when it is empty).
func checkDigests(r *report, srv *server.Server, plan *sessionPlan, ref *[]sessionDigest, what string, k *track) error {
	for i := 0; i < checkSessions; i++ {
		d, _, err := runSession(srv, plan, i, k, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		r.attempted++
		if len(*ref) <= i {
			*ref = append(*ref, d)
		} else if d != (*ref)[i] {
			r.problem("%s: session %d digest %016x, reference %016x", what, i, d.full, (*ref)[i].full)
		}
	}
	return nil
}

func ingestOnce(x *run, st *ingestState, k *track) (ingestResult, error) {
	var res ingestResult
	dir, err := x.dir("ingest")
	if err != nil {
		return res, err
	}
	srv, _, err := newDurable(st.c, dir, k)
	if err != nil {
		return res, err
	}
	heap0 := heapAfterGC()
	cpu0, t0 := cpuNow(), time.Now()
	if err := feed(srv, st.c.batches, k); err != nil {
		srv.Kill()
		return res, err
	}
	res.wall, res.cpu = time.Since(t0), cpuNow()-cpu0
	x.rep.attempted += len(st.c.batches)
	if heap1 := heapAfterGC(); heap1 > heap0 {
		res.resident = heap1 - heap0
	}
	checkIngest(x.rep, srv, st.c.spans)
	if err := checkDigests(x.rep, srv, st.plan, &st.ref, "two durable shards vs one memory shard", k); err != nil {
		srv.Kill()
		return res, err
	}
	res.before = srv.DurableStats()

	// Crash with the memtable unsealed, recover from blocks + WAL, and
	// answer the first question.
	end := k.span("server.kill")
	srv.Kill()
	end()
	t0 = time.Now()
	srv2, rs, err := newDurable(st.c, dir, k)
	if err != nil {
		return res, fmt.Errorf("recovery: %w", err)
	}
	d, _, err := runSession(srv2, st.plan, 0, k, nil)
	res.recoverDur = time.Since(t0)
	x.rep.attempted += 2 // the recovery and its first session
	if err != nil {
		srv2.Kill()
		return res, fmt.Errorf("first query after recovery: %w", err)
	}
	if d != st.ref[0] {
		x.rep.problem("first session after recovery: digest %016x, before the crash %016x", d.full, st.ref[0].full)
	}
	if got := rs.BlockSpans + rs.WALSpans; got != st.c.spans || rs.TornTailDropped != 0 {
		x.rep.problem("recovery replayed %d spans (%d torn), want %d", got, rs.TornTailDropped, st.c.spans)
	}
	if got := srv2.SpanCount(); got != st.c.spans {
		x.rep.problem("SpanCount after recovery = %d, want %d", got, st.c.spans)
	}
	if err := checkDigests(x.rep, srv2, st.plan, &st.ref, "after kill and recovery", k); err != nil {
		srv2.Kill()
		return res, err
	}
	end = k.span("server.close")
	srv2.Close()
	end()
	res.after = srv2.DurableStats()
	res.disk = res.after.WALBytes + res.after.SealedBytes
	return res, nil
}

func runIngest(x *run) error {
	st, err := setUp(x, func() (*ingestState, error) {
		c, err := recordCorpus(x.seed, x.sz, x.sz.ingestVirt, false, x.track(0))
		if err != nil {
			return nil, err
		}
		plan, err := newPlan(c.roots, c.loadVirt, checkSessions, x.sz)
		if err != nil {
			return nil, err
		}
		st := &ingestState{c: c, plan: plan}
		// The reference answers: the same corpus in one memory-only shard.
		one, _, err := memIngest(c, 1)
		if err != nil {
			return nil, err
		}
		err = checkDigests(x.rep, one, plan, &st.ref, "one memory shard", nil)
		one.Close()
		if err != nil {
			return nil, err
		}
		_, err = ingestOnce(x, st, nil) // the discarded warm-up rep
		return st, err
	}, func(*ingestState) {})
	if err != nil {
		return err
	}
	spans := float64(st.c.spans)

	var rate, tracedRate, cpuUS, diskB, recoverMS, residentB []float64
	var last ingestResult
	tracedSpans := 0
	n, err := x.measure(func(i int, k *track) error {
		res, err := ingestOnce(x, st, k)
		if err != nil {
			return err
		}
		if k != nil {
			tracedRate = append(tracedRate, spans/res.wall.Seconds())
			tracedSpans += st.c.spans
			return nil
		}
		rate = append(rate, spans/res.wall.Seconds())
		cpuUS = append(cpuUS, us(res.cpu)/spans)
		diskB = append(diskB, float64(res.disk)/spans)
		recoverMS = append(recoverMS, ms(res.recoverDur))
		residentB = append(residentB, float64(res.resident)/spans)
		last = res
		return nil
	})
	if err != nil {
		return err
	}

	x.logReps("spans/s", rate)
	x.logReps("cpu us/span", cpuUS)
	x.logReps("recover ms", recoverMS)
	x.logReps("disk B/span", diskB)
	if x.tr == nil {
		reps := fmt.Sprintf("%d reps of %d spans in %d batches", n, st.c.spans, len(st.c.batches))
		x.rep.set("spans_per_s", maxOf(rate), "best of "+reps+": first IngestBatch to Drain, 2 durable shards")
		x.rep.set("cpu_us_per_span", minOf(cpuUS), "best of "+reps+": process CPU (getrusage) over the same section")
		x.rep.set("bytes_per_span", median(diskB), "median of reps: WAL + sealed bytes after recovery and a clean close / spans")
		x.rep.set("latency_ms_p50", minOf(recoverMS), fmt.Sprintf("best of %d recoveries: Kill to AttachDurable returned to first session answered", n))
		return nil
	}

	x.overhead(rate, tracedRate)
	x.selfRows(tracedSpans, "server", "query")
	x.rep.set("ingest.resident_bytes_per_span", median(residentB), "median of reps: HeapAlloc after two GCs minus the pre-ingest figure / spans")
	x.rep.set("ingest.recover_spans_per_s", spans/(median(recoverMS)/1e3), "spans / median recovery time")
	x.rep.set("dstore.blocks", float64(last.before.Blocks), "sealed blocks at the crash, compaction applied")
	x.rep.set("dstore.compactions", float64(last.before.Compactions), "merges during ingest")
	x.rep.set("dstore.compaction_debt", float64(last.after.CompactionDebt), "after the clean close")
	x.rep.set("dstore.sealed_bytes_per_span", float64(last.after.SealedBytes)/spans, "after the clean close")
	dir, err := x.dir("replay")
	if err != nil {
		return err
	}
	if err := serverReplays(st.c, dir, x.rep, x.track(0)); err != nil {
		return err
	}
	if mem := x.rep.metrics["server.ingest_mem_2shard_spans_per_s"]; mem <= 2*maxOf(rate) {
		x.rep.problem("separation: memory-only ingest (%.0f spans/s) is not twice durable ingest (%.0f): dstore's share is no longer visible", mem, maxOf(rate))
	}
	return nil
}
