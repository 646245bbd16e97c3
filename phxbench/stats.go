package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p99Slices is how many consecutive slices of a run's ops (in completion
// order) blockP99 takes a p99 of.
const p99Slices = 20

// blockP99 is the median over p99Slices consecutive equal slices of the
// samples of each slice's p99 (slices of at least 100 samples). One host
// stall, which delays every op in flight at once, moves one slice, not
// the reported figure; a latency shift that lasts the run moves every
// slice.
func blockP99(xs []float64) float64 {
	size := max(len(xs)/p99Slices, 100)
	if len(xs) < 2*size {
		return quantile(append([]float64(nil), xs...), 0.99)
	}
	var ps []float64
	for lo := 0; lo+size <= len(xs); lo += size {
		ps = append(ps, quantile(append([]float64(nil), xs[lo:lo+size]...), 0.99))
	}
	return median(ps)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is a snapshot of the process counters the benchmark reports.
type procSample struct {
	at     time.Time
	cpu    time.Duration
	allocs uint64 // heap objects allocated so far
	gcs    uint64 // completed GC cycles
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func sampleProc() procSample {
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	return procSample{at: time.Now(), cpu: cpuTime(),
		allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// heapPeak samples the in-use heap (object bytes plus the free space of
// in-use spans, runtime.MemStats.HeapInuse) every 20 ms until stopped and
// keeps the per-second peaks; the reported figure is their median, so one
// GC cycle that ran late does not set the run's number. runtime/metrics
// reads it without stopping the world.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peaks []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var peak float64
		windowEnd := time.Now().Add(time.Second)
		for {
			select {
			case <-h.stop:
				return
			case now := <-tick.C:
				metrics.Read(sample)
				if v := float64(sample[0].Value.Uint64() + sample[1].Value.Uint64()); v > peak {
					peak = v
				}
				if now.After(windowEnd) {
					h.mu.Lock()
					h.peaks = append(h.peaks, peak)
					h.mu.Unlock()
					peak = 0
					windowEnd = now.Add(time.Second)
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and reports the median per-second peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.peaks) / (1 << 20)
}
