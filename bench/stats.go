package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of v (p in 0..100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// maxOf and minOf are the best rep of a rate and of a cost; an empty
// sample reads 0, like every row a workload does not fill.
func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// tail returns the highest of p99/p95/p90/p75 that still has ten samples
// beyond it, and which one it was; with fewer than forty samples no high
// percentile repeats, so it falls back to the median (pct 50).
func tail(v []float64) (value float64, pct int) {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(len(v))*float64(100-p)/100 >= 10 {
			return percentile(v, float64(p)), p
		}
	}
	return median(v), 50
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuNow is the process's user+system CPU time so far (getrusage).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC is the live heap once two collections have run (the second
// frees what the first one's finalizers released).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// gcCPU is the CPU time the garbage collector has used so far, as the
// runtime estimates it.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}
