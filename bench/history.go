package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// historyEntry is one suite run in bench/history.jsonl — the trajectory a
// later change is read against.
type historyEntry struct {
	Commit  string                        `json:"commit"`
	NProc   int                           `json:"nproc"`
	Go      string                        `json:"go"`
	Seed    int64                         `json:"seed"`
	Time    string                        `json:"time"`
	Metrics map[string]map[string]float64 `json:"metrics"` // workload → end-to-end metric → value
}

func newHistoryEntry(spec *benchSpec, seed int64) *historyEntry {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", spec.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", spec.root, "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			commit += "+dirty" // measured on top of that commit, not at it
		}
	}
	return &historyEntry{Commit: commit, NProc: runtime.NumCPU(), Go: runtime.Version(), Seed: seed,
		Time: time.Now().UTC().Format(time.RFC3339), Metrics: map[string]map[string]float64{}}
}

func (e *historyEntry) add(workload string, res result) {
	e.Metrics[workload] = map[string]float64{}
	for name, m := range res.Metrics {
		e.Metrics[workload][name] = m.Value
	}
}

func appendHistory(path string, e *historyEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareHistory diffs e against the last entry taken on a machine with as
// many CPUs, metric by metric, against the bounds; it reports whether any
// metric got worse by more than its bound.
func compareHistory(w io.Writer, spec *benchSpec, path string, e *historyEntry) (regressed bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintln(w, "compare: no history yet")
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	var base *historyEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var h historyEntry
		if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if h.NProc == e.NProc {
			base = &h
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	if base == nil {
		fmt.Fprintf(w, "compare: no history entry with nproc=%d\n", e.NProc)
		return false, nil
	}
	fmt.Fprintf(w, "# compare against %s (%s, seed %d)\n", base.Commit, base.Time, base.Seed)
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			was, ok := base.Metrics[wl.Name][m.Name]
			if !ok {
				continue
			}
			now := e.Metrics[wl.Name][m.Name]
			gap := worse(m, was, now)
			verdict := "ok"
			if gap > m.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-16s was=%-14.4f now=%-14.4f worse by %6.2f%% bound=%4.0f%% %s\n",
				wl.Name, m.Name, was, now, gap*100, m.Bound*100, verdict)
		}
	}
	return regressed, nil
}
