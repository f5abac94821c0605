package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"provabs/internal/session"
)

// oneShot is one one-shot what-if of the run and the session it targets.
type oneShot struct {
	s *liveSession
	whatifInput
}

// sample is one answer kept for the correctness gates.
type sample struct {
	shot *oneShot
	raw  []byte
}

type stmtRun struct {
	kind      string
	scenarios int64
	took      time.Duration
}

// phaseResults gathers what the phases measured and kept.
type phaseResults struct {
	whatifA, adds, queries, whatifB opStats
	untracedB                       opStats // traced runs: the untraced half of phase B

	rateQ, rateB     []float64 // each round's scenarios per second in phase Q and one-shots per second in phase B
	cpuQ, cpuB       []float64 // the same per CPU-second of the whole process
	durQ, durB, durF time.Duration
	nextA            int          // phase A's position in its cycle of one-shots, across rounds
	nextStmt         int          // phase Q's position in the statement cycle, across rounds
	respBytes        atomic.Int64 // phase A one-shot response bytes

	mu       sync.Mutex
	samplesA []sample
	samplesB []sample
	acked    []int          // feed line indexes acknowledged without error, in ack order
	digests  map[int]uint64 // digest of each statement's first row set
	stmtRuns []stmtRun      // every statement phase Q ran
}

func (ph *phaseResults) all() []*opStats {
	return []*opStats{&ph.whatifA, &ph.adds, &ph.queries, &ph.whatifB, &ph.untracedB}
}

func (ph *phaseResults) firstErr() error {
	for _, s := range ph.all() {
		if s.firstErr != nil {
			return s.firstErr
		}
	}
	return nil
}

// A one-shot phase keeps every sampleStride-th answer for the gates, up to
// maxSamples a round, so every round is checked while what the load
// generator holds stays small beside the system under test.
const (
	sampleStride = 16
	maxSamples   = 32
)

// phaseA runs the closed loop of one-shots with one client, carrying on
// through its cycle of shots where the previous round stopped.
func (r *runner) phaseA(ctx context.Context, st *stack, tr *tracer, shots []oneShot, dur time.Duration, ph *phaseResults) {
	c := newClient(st.url, 1, tr)
	defer c.close()
	kept := 0
	closedLoop(ctx, 1, time.Now().Add(dur), func(ctx context.Context, _, _ int) {
		shot := &shots[ph.nextA%len(shots)]
		keep := ph.nextA%sampleStride == 0 && kept < maxSamples
		ph.nextA++
		t0 := time.Now()
		size, raw, err := c.whatif(ctx, shot.s.name, shot.body, keep)
		ph.whatifA.observe(time.Since(t0), err)
		if err == nil {
			ph.respBytes.Add(int64(size))
			if keep {
				kept++
				ph.samplesA = append(ph.samplesA, sample{shot, raw})
			}
		}
	})
}

// feed sends the add lines on one full-duplex stream, one at a time: each
// line goes out when the previous one is acked and is timed from its send
// to its ack. A line never acked counts as failed. adds[0] is line base of
// the run's feed.
func (r *runner) feed(ctx context.Context, st *stack, tr *tracer, s *liveSession, adds []addInput, base int, ph *phaseResults) {
	c := newClient(st.url, 1, tr)
	defer c.close()
	// When the run is cancelled the writer stops and ends the body, so the
	// stream closes cleanly with every sent line acked; a stream still
	// open two seconds later is torn down.
	streamCtx, cancelStream := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelStream()
	defer context.AfterFunc(ctx, func() {
		t := time.NewTimer(2 * time.Second)
		defer t.Stop()
		select {
		case <-t.C:
			cancelStream()
		case <-streamCtx.Done():
		}
	})()
	start := time.Now()
	defer func() { ph.durF += time.Since(start) }()
	as := c.openAdd(streamCtx, s.name)
	sentAt := make([]time.Time, 0, len(adds))
	ackedOne := make(chan struct{}, 1)
	ended := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer as.closeSend() //nolint:errcheck // closing a pipe writer cannot fail
		for _, a := range adds {
			if ctx.Err() != nil {
				return
			}
			ph.mu.Lock()
			sentAt = append(sentAt, time.Now())
			ph.mu.Unlock()
			if err := as.write(a.line); err != nil {
				return
			}
			select {
			case <-ackedOne:
			case <-ended:
				return
			}
		}
	}()
	acked := 0
	err := as.acks(func(index int, inBand string) {
		acked++
		ph.mu.Lock()
		n := len(sentAt)
		var at time.Time
		if index < n {
			at = sentAt[index]
		}
		ph.mu.Unlock()
		switch {
		case index >= n:
			ph.adds.observe(0, fmt.Errorf("ack for line %d of %d sent", index, n))
		case inBand != "":
			ph.adds.observe(0, fmt.Errorf("add line %d: %s", base+index, inBand))
		default:
			ph.adds.observe(time.Since(at), nil)
			ph.acked = append(ph.acked, base+index)
		}
		select {
		case ackedOne <- struct{}{}:
		default:
		}
	})
	close(ended)
	if err != nil {
		as.pw.CloseWithError(err)
	}
	wg.Wait()
	sent := len(sentAt)
	if err != nil && ctx.Err() == nil {
		ph.adds.observe(0, err)
	}
	for i := acked; i < sent; i++ {
		ph.adds.observe(0, fmt.Errorf("add line %d never acked", base+i))
	}
}

// phaseQ runs the closed loop of ScenQL statements with one client, in
// pairs (a grid sweep, then a SAMPLE), carrying on through the statement
// cycle where the previous round stopped.
func (r *runner) phaseQ(ctx context.Context, st *stack, tr *tracer, queries []*liveSession, stmts []statement, dur time.Duration, ph *phaseResults) {
	c := newClient(st.url, 1, tr)
	defer c.close()
	var scenarios int64
	cpu0, start := cpuTime(), time.Now()
	closedLoop(ctx, 1, start.Add(dur), func(ctx context.Context, _, _ int) {
		for pair := 0; pair < 2; pair++ {
			scenarios += r.statement(ctx, c, queries, stmts, ph.nextStmt%len(stmts), ph)
			ph.nextStmt++
		}
	})
	elapsed := time.Since(start)
	runtime.GC() // the phase's own garbage is part of its CPU cost
	ph.durQ += elapsed
	ph.rateQ = append(ph.rateQ, float64(scenarios)/elapsed.Seconds())
	ph.cpuQ = append(ph.cpuQ, float64(scenarios)/(cpuTime()-cpu0).Seconds())
}

// statement runs statement k once, checks it answers as it did the first
// time, and returns how many scenarios it evaluated.
func (r *runner) statement(ctx context.Context, c *client, queries []*liveSession, stmts []statement, k int, ph *phaseResults) int64 {
	t0 := time.Now()
	n, rows, err := c.query(ctx, queries[stmts[k].session].name, stmts[k].src)
	took := time.Since(t0)
	if err == nil && len(rows) == 0 {
		err = fmt.Errorf("statement %d returned no rows", k)
	}
	ph.queries.observe(took, err)
	if err != nil {
		return 0
	}
	ph.stmtRuns = append(ph.stmtRuns, stmtRun{stmts[k].kind, n, took})
	d := digestRows(rows)
	if prev, ok := ph.digests[k]; !ok {
		ph.digests[k] = d
	} else if prev != d {
		ph.queries.observe(0, fmt.Errorf("statement %d answered differently on a repeat", k))
	}
	return n
}

// phaseB runs the closed loop of one-shots with two clients, cycling
// through shots. In a traced run every other request goes untraced, and
// the gap between the two halves' median latencies is the tracing
// overhead.
func (r *runner) phaseB(ctx context.Context, st *stack, tr *tracer, shots []oneShot, dur time.Duration, ph *phaseResults) {
	c := newClient(st.url, 2, tr)
	defer c.close()
	plain := c
	if tr != nil {
		plain = newClient(st.url, 2, nil)
		defer plain.close()
	}
	done, kept := 0, 0
	cpu0, start := cpuTime(), time.Now()
	closedLoop(ctx, 2, start.Add(dur), func(ctx context.Context, client, i int) {
		shot := &shots[(client*len(shots)/2+len(ph.rateB)*64+i)%len(shots)]
		cl, into := c, &ph.whatifB
		if tr != nil && i%2 == 0 {
			cl, into = plain, &ph.untracedB
		}
		ph.mu.Lock()
		keep := i%sampleStride == 0 && kept < maxSamples
		if keep {
			kept++
		}
		ph.mu.Unlock()
		t0 := time.Now()
		_, raw, err := cl.whatif(ctx, shot.s.name, shot.body, keep)
		into.observe(time.Since(t0), err)
		ph.mu.Lock()
		if err == nil {
			done++
			if keep {
				ph.samplesB = append(ph.samplesB, sample{shot, raw})
			}
		}
		ph.mu.Unlock()
	})
	elapsed := time.Since(start)
	runtime.GC() // the phase's own garbage is part of its CPU cost
	ph.durB += elapsed
	ph.rateB = append(ph.rateB, float64(done)/elapsed.Seconds())
	ph.cpuB = append(ph.cpuB, float64(done)/(cpuTime()-cpu0).Seconds())
}

// scrapeData is the counters read from the public endpoints around the
// measured window.
type scrapeData struct {
	stats map[string]session.Stats
	gw    gatewayCounters
}

func scrape(ctx context.Context, c *client, sessions []*liveSession) (*scrapeData, error) {
	d := &scrapeData{stats: map[string]session.Stats{}}
	for _, s := range sessions {
		stats, err := c.stats(ctx, s.name)
		if err != nil {
			return nil, err
		}
		d.stats[s.name] = stats
	}
	var err error
	d.gw, err = c.gatewayCounters(ctx)
	return d, err
}
