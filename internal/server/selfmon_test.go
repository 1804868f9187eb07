package server

import (
	"strings"
	"testing"

	"deepflow/internal/selfmon"
)

// sampleValue returns the sum of snapshot samples matching name and tag
// filters (counters with different tag sets are separate samples).
func sampleValue(samples []selfmon.Sample, name string, tags map[string]string) (float64, bool) {
	var sum float64
	found := false
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for k, v := range tags {
			if s.Tags[k] != v {
				continue next
			}
		}
		sum += s.Value
		found = true
	}
	return sum, found
}

func TestServerSelfMonitoring(t *testing.T) {
	reg, _, _ := testRegistry(t)
	srv := New(reg, EncodingSmart)
	spans := buildPathSpans(reg)
	ingestSpans(t, srv, spans...)
	tr := srv.Trace(spans[0].ID)
	if tr == nil || tr.Len() != 6 {
		t.Fatalf("trace = %v", tr)
	}

	snap := srv.Mon.Snapshot()

	if v, ok := sampleValue(snap, "deepflow_server_spans_ingested", nil); !ok || v != 6 {
		t.Errorf("spans_ingested = %v (found=%v), want 6", v, ok)
	}
	if v, ok := sampleValue(snap, "deepflow_server_storage_rows",
		map[string]string{"encoding": "smart-encoding"}); !ok || v != 6 {
		t.Errorf("storage_rows = %v (found=%v), want 6", v, ok)
	}
	if v, ok := sampleValue(snap, "deepflow_server_storage_disk_bytes",
		map[string]string{"encoding": "smart-encoding"}); !ok || int64(v) != srv.stores[0].DiskBytes() {
		t.Errorf("storage_disk_bytes = %v, want %d", v, srv.stores[0].DiskBytes())
	}

	// 5 of 6 spans got a parent; every decision must be attributed to a rule.
	if v, ok := sampleValue(snap, "deepflow_server_parent_rule_hits", nil); !ok || v != 5 {
		t.Errorf("total parent_rule_hits = %v (found=%v), want 5", v, ok)
	}
	// The B→C nesting decision fires the systrace rule specifically.
	if v, _ := sampleValue(snap, "deepflow_server_parent_rule_hits",
		map[string]string{"rule": "04-client-under-server-systrace"}); v < 1 {
		t.Errorf("systrace rule hits = %v, want >= 1", v)
	}

	if v, ok := sampleValue(snap, "deepflow_server_assemble_iterations_count", nil); !ok || v != 1 {
		t.Errorf("assemble_iterations_count = %v (found=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(snap, "deepflow_server_assemble_iterations_p99", nil); !ok || v <= 0 {
		t.Errorf("assemble_iterations_p99 = %v (found=%v), want > 0", v, ok)
	}

	// Dictionaries: "" sentinel + frontend-0 + backend-0.
	if v, ok := sampleValue(snap, "deepflow_server_dictionary_size",
		map[string]string{"dict": "pods"}); !ok || v != 3 {
		t.Errorf("dictionary_size{dict=pods} = %v (found=%v), want 3", v, ok)
	}

	var b strings.Builder
	if err := srv.WriteStats(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"deepflow_server_spans_ingested",
		"deepflow_server_parent_rule_hits",
		`component="server"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteStats output missing %q", want)
		}
	}
}
