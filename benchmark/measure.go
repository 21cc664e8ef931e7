package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rng is a SplitMix64 stream. Every input a workload generates comes from
// one of these, seeded from --seed, so the same seed gives the same inputs.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng { return &rng{s: mix(parts...)} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return splitmix(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix hashes its arguments into one well-scrambled word.
func mix(parts ...uint64) uint64 {
	h := uint64(0x6A09E667F3BCC909)
	for _, p := range parts {
		h = splitmix(h ^ (p + 0x9E3779B97F4A7C15))
	}
	return h
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler tracks the peak of heap object bytes (live objects and
// garbage not yet swept, what MemStats calls HeapAlloc) by reading
// runtime/metrics, which does not stop the world, every 5 ms.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset starts a new peak window at the current heap size.
func (h *heapSampler) reset() { h.peak.Store(heapNow()) }

// peakMB closes the current window and returns its peak in MB.
func (h *heapSampler) peakMB() float64 {
	h.observe(heapNow())
	return float64(h.peak.Load()) / 1e6
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// median of xs (which it sorts); 0 for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile sorts xs and returns the p-th percentile by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// quartiles matches Python's statistics.quantiles(data, n=4) (the default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
