package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opStats collects the outcome of one kind of operation in one phase.
type opStats struct {
	mu        sync.Mutex
	lat       []time.Duration
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  error
}

func (s *opStats) observe(lat time.Duration, err error) {
	s.attempted.Add(1)
	if err != nil {
		s.failed.Add(1)
	}
	s.mu.Lock()
	if err != nil && s.firstErr == nil {
		s.firstErr = err
	}
	if err == nil {
		s.lat = append(s.lat, lat)
	}
	s.mu.Unlock()
}

// closedLoop runs clients loops until the deadline; each sends its next
// request only when the previous one has completed.
func closedLoop(ctx context.Context, clients int, until time.Time, job func(ctx context.Context, client, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && time.Now().Before(until); i++ {
				job(ctx, c, i)
			}
		}()
	}
	wg.Wait()
}

// quantile is the nearest-rank q-quantile of samples (which it sorts).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[max(0, min(i, len(samples)-1))]
}

// tailQuantile is quantile for a reported tail percentile: at least
// minBeyond samples must lie beyond it, or the sample does not support it.
func tailQuantile(samples []time.Duration, q float64, minBeyond int) (time.Duration, error) {
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	if beyond := len(samples) - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("%d samples leave %d beyond p%g; the percentile needs %d", len(samples), beyond, q*100, minBeyond)
	}
	return quantile(samples, q), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the whole process has used, user and system.
// The guest kernel leaves out time the host took the CPU away, so work per
// CPU-second does not move with the host's other tenants the way work per
// wall-clock second does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler records the peak live Go heap of the whole process while it
// runs: the heap each GC cycle marked live, which unlike the heap in use
// does not swing with when collections happen to fall.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
