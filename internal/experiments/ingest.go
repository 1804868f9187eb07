package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"deepflow/internal/k8s"
	"deepflow/internal/server"
	"deepflow/internal/sim"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// IngestRow is one shard count's measured batched-ingest throughput.
type IngestRow struct {
	Shards     int
	Rows       int
	Elapsed    time.Duration
	RowsPerSec float64
	Speedup    float64 // vs the 1-shard row
	// QueryDigest fingerprints the span-list and trace-assembly results;
	// identical digests across shard counts prove the partition merge is
	// exact, not approximately right.
	QueryDigest uint64
}

// WireRow is one tag encoding's bytes on the wire for the same corpus — the
// collection-plane face of Fig. 14's smart-encoding claim ("agents send
// only ints"). Smart is measured off the real encoder; the two baselines
// are computed sizes (see wireSizes).
type WireRow struct {
	Encoding     server.Encoding
	TotalBytes   int
	BytesPerSpan float64
}

// IngestResult is the machine-readable summary emitted to BENCH_ingest.json.
type IngestResult struct {
	CPUs             int                `json:"cpus"`
	Spans            int                `json:"spans"`
	BatchSize        int                `json:"batch_size"`
	RowsPerSec       map[string]float64 `json:"rows_per_sec_by_shards"`
	SpeedupMaxShards float64            `json:"speedup_max_shards"`
	DigestsIdentical bool               `json:"digests_identical"`
	WireBytesPerSpan map[string]float64 `json:"wire_bytes_per_span"`
	SmartSmallest    bool               `json:"smart_smallest"`
}

// ingestBatches encodes the corpus into fixed-size smart-wire batches, the
// form agents actually ship.
func ingestBatches(spans []*trace.Span, batchSize int) [][]byte {
	var out [][]byte
	for off := 0; off < len(spans); off += batchSize {
		end := off + batchSize
		if end > len(spans) {
			end = len(spans)
		}
		b := &transport.Batch{Host: "bench", Seq: uint64(len(out) + 1), Spans: spans[off:end]}
		out = append(out, transport.Encode(b))
	}
	return out
}

// wireSizes returns the bytes one batch takes on the wire under the smart
// encoding (the real encoder's output) and under the two baselines an agent
// resolving names at the edge would ship: direct appends the six resolved
// tag names to every span; low-cardinality ships a per-batch name
// dictionary (count + names, first-appearance order) and six dictionary
// indexes per span. The baselines are sizes only — nothing encodes or
// decodes them.
func wireSizes(b *transport.Batch, resolve func(trace.ResourceTags) [6]string) (smart, direct, lowCard int) {
	var scratch [binary.MaxVarintLen64]byte
	uvarintLen := func(v int) int { return binary.PutUvarint(scratch[:], uint64(v)) }
	dict := map[string]int{}
	var names, dictNames, indexes int
	for _, sp := range b.Spans {
		for _, name := range resolve(sp.Resource) {
			str := uvarintLen(len(name)) + len(name)
			names += str
			idx, ok := dict[name]
			if !ok {
				idx = len(dict)
				dict[name] = idx
				dictNames += str
			}
			indexes += uvarintLen(idx)
		}
	}
	smart = len(transport.Encode(b))
	return smart, smart + names, smart + uvarintLen(len(dict)) + dictNames + indexes
}

// queryDigest fingerprints what a user would see: the full span-list
// sequence plus the assembled traces for a sample of starting spans.
func queryDigest(srv *server.Server, spanCount int) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	from, to := sim.Epoch, sim.Epoch.Add(24*time.Hour)
	for _, sp := range srv.SpanList(from, to, 0) {
		w(uint64(sp.ID))
		w(uint64(sp.StartTime.UnixNano()))
	}
	starts := spanCount / 10
	if starts > 64 {
		starts = 64
	}
	for id := 1; id <= starts; id++ {
		tr := srv.Trace(trace.SpanID(id))
		if tr == nil {
			w(0)
			continue
		}
		for _, sp := range tr.Spans {
			w(uint64(sp.ID))
			w(uint64(sp.ParentID))
		}
	}
	return h.Sum64()
}

// MeasureIngest feeds the same pre-encoded batch stream into servers with
// increasing shard counts and measures batched-ingest throughput (push all
// batches + drain), plus the wire size of the corpus under each encoding.
func MeasureIngest(spanCount, podCardinality, batchSize int, shardCounts []int) ([]IngestRow, []WireRow, error) {
	if batchSize <= 0 {
		batchSize = 512
	}
	cluster := synthCluster(podCardinality)
	reg := server.NewResourceRegistry([]*k8s.Cluster{cluster}, nil)
	pods := cluster.Pods()

	rng := rand.New(rand.NewSource(99))
	spans := make([]*trace.Span, spanCount)
	for i := range spans {
		spans[i] = synthSpan(rng, cluster, pods, i)
	}
	batches := ingestBatches(spans, batchSize)

	// Wire sizes per encoding over the identical corpus. The resolver is
	// the server registry's query-time decoder — exactly the names the
	// non-smart baselines would push onto the wire.
	resolve := func(rt trace.ResourceTags) [6]string {
		d := reg.Decode(reg.Enrich(rt))
		return [6]string{d.Pod, d.Node, d.Service, d.Namespace, d.Region, d.AZ}
	}
	var totals [3]int
	for off := 0; off < len(spans); off += batchSize {
		b := &transport.Batch{Host: "bench", Spans: spans[off:min(off+batchSize, len(spans))]}
		smart, direct, lowCard := wireSizes(b, resolve)
		totals[0] += smart
		totals[1] += direct
		totals[2] += lowCard
	}
	var wire []WireRow
	for i, enc := range []server.Encoding{server.EncodingSmart, server.EncodingDirect, server.EncodingLowCard} {
		wire = append(wire, WireRow{Encoding: enc, TotalBytes: totals[i], BytesPerSpan: float64(totals[i]) / float64(len(spans))})
	}

	// Warm every code path before timing (decode, insert, enrich).
	{
		warm := server.NewSharded(reg, server.EncodingSmart, 0, 2)
		for _, b := range batches[:min(len(batches), 8)] {
			if err := warm.IngestBatch(b); err != nil {
				return nil, nil, err
			}
		}
		warm.Drain()
		warm.Close()
	}

	var rows []IngestRow
	for _, n := range shardCounts {
		srv := server.NewSharded(reg, server.EncodingSmart, 0, n)
		runtime.GC()
		start := time.Now()
		for _, b := range batches {
			if err := srv.IngestBatch(b); err != nil {
				return nil, nil, err
			}
		}
		srv.Drain()
		elapsed := time.Since(start)
		srv.Close()
		rows = append(rows, IngestRow{
			Shards:      n,
			Rows:        srv.SpansIngested(),
			Elapsed:     elapsed,
			RowsPerSec:  float64(srv.SpansIngested()) / elapsed.Seconds(),
			QueryDigest: queryDigest(srv, spanCount),
		})
	}
	base := rows[0].RowsPerSec
	for i := range rows {
		rows[i].Speedup = rows[i].RowsPerSec / base
	}
	return rows, wire, nil
}

// Ingest runs the batched-ingest scaling experiment and formats it.
func Ingest(spanCount, podCardinality int) (*Table, error) {
	shardCounts := []int{1, 2, 4}
	const batchSize = 512
	rows, wire, err := MeasureIngest(spanCount, podCardinality, batchSize, shardCounts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ingest",
		Title:   fmt.Sprintf("Batched wire ingest scaling (%d spans, %d-span batches, %d pods, %d CPUs)", spanCount, batchSize, podCardinality, runtime.NumCPU()),
		Columns: []string{"shards", "rows", "elapsed (ms)", "rows/s", "speedup", "query digest"},
		Notes: []string{
			"paper §3.4: ClickHouse ingests ~2·10⁵ rows/s/node; shards are this server's parallel-insert analogue",
			"identical query digests across shard counts = partition-merged queries are exact",
		},
	}
	identical := true
	for _, r := range rows {
		t.AddRow(r.Shards, r.Rows,
			fmt.Sprintf("%.1f", float64(r.Elapsed.Nanoseconds())/1e6),
			fmt.Sprintf("%.0f", r.RowsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%016x", r.QueryDigest))
		if r.QueryDigest != rows[0].QueryDigest {
			identical = false
		}
	}
	smartSmallest := wire[0].TotalBytes < wire[1].TotalBytes && wire[0].TotalBytes < wire[2].TotalBytes
	t.Notes = append(t.Notes, fmt.Sprintf(
		"wire bytes/span: %s=%.1f %s=%.1f %s=%.1f (smart strictly smallest: %v)",
		wire[0].Encoding, wire[0].BytesPerSpan,
		wire[1].Encoding, wire[1].BytesPerSpan,
		wire[2].Encoding, wire[2].BytesPerSpan, smartSmallest))
	if runtime.NumCPU() < 2 {
		t.Notes = append(t.Notes, "single-CPU machine: parallel shards cannot speed up ingest here; speedup column reflects that honestly")
	}

	res := IngestResult{
		CPUs:             runtime.NumCPU(),
		Spans:            spanCount,
		BatchSize:        batchSize,
		RowsPerSec:       map[string]float64{},
		SpeedupMaxShards: rows[len(rows)-1].Speedup,
		DigestsIdentical: identical,
		WireBytesPerSpan: map[string]float64{},
		SmartSmallest:    smartSmallest,
	}
	for _, r := range rows {
		res.RowsPerSec[fmt.Sprintf("%d", r.Shards)] = r.RowsPerSec
	}
	for _, w := range wire {
		res.WireBytesPerSpan[w.Encoding.String()] = w.BytesPerSpan
	}
	t.JSON = res
	return t, nil
}
