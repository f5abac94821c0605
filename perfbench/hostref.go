package main

import (
	"strconv"
	"strings"
	"time"
)

// hostRef is a fixed computation that gauges how fast the host is running
// this process at the moment. It stands in for the kinds of work a request
// does: formatting and parsing floats as the JSON codec does, a
// multiply-add loop over an array that fits in a core's L2, and
// string-keyed map lookups, in that order of weight. It allocates nothing,
// so the program's heap cannot slow it down through the GC, and it calls
// no code of the program under test.
//
// The VMs this benchmark runs on share their hosts, whose other tenants
// slow the whole process down, CPU-seconds included, by up to a factor of
// three for minutes at a time. The gauge slows down with it, so a run's
// timings divided by its gauge compare across such spells better than the
// raw timings do.
type hostRef struct {
	vals  []float64
	text  string // vals formatted, space-separated
	arr   []float64
	keys  []string
	index map[string]int
	buf   []byte
	sink  float64
}

const (
	refFloats = 512
	refArray  = 16 << 10 // float64s: 128 KiB
	refKeys   = 1024
	// refPasses is how many passes one gauge times.
	refPasses = 40
)

// gaugeNominal is the gauge the end-to-end timings are scaled to: about
// the mean gauge on the 2-vCPU Xeon VM the benchmark was tuned on, in a
// slow spell of its host.
const gaugeNominal = 11 * time.Millisecond

func newHostRef() *hostRef {
	h := &hostRef{
		vals:  make([]float64, refFloats),
		arr:   make([]float64, refArray),
		keys:  make([]string, refKeys),
		index: make(map[string]int, refKeys),
		buf:   make([]byte, 0, 32*refFloats),
	}
	var sb strings.Builder
	for i := range h.vals {
		h.vals[i] = 1000 * float64(i*7919%1009) / 997
		sb.WriteString(strconv.FormatFloat(h.vals[i], 'g', -1, 64))
		sb.WriteByte(' ')
	}
	h.text = sb.String()
	for i := range h.keys {
		h.keys[i] = "zip" + strconv.Itoa(10000+i*37)
		h.index[h.keys[i]] = i
	}
	return h
}

// pass runs the computation once.
func (h *hostRef) pass() {
	h.buf = h.buf[:0]
	for _, v := range h.vals {
		h.buf = strconv.AppendFloat(h.buf, v, 'g', -1, 64)
		h.buf = append(h.buf, ' ')
	}
	s := float64(len(h.buf))
	for rest := h.text; len(rest) > 0; {
		i := strings.IndexByte(rest, ' ')
		v, err := strconv.ParseFloat(rest[:i], 64)
		if err == nil {
			s += v
		}
		rest = rest[i+1:]
	}
	for i := range h.arr {
		h.arr[i] = h.arr[i]*0.5 + h.vals[i%refFloats]
		s += h.arr[i]
	}
	for r := 0; r < 2; r++ {
		for _, k := range h.keys {
			s += float64(h.index[k])
		}
	}
	h.sink += s
}

// gauge times refPasses passes after one untimed pass that brings the
// computation's data back into the caches.
func (h *hostRef) gauge() time.Duration {
	h.pass()
	start := time.Now()
	for i := 0; i < refPasses; i++ {
		h.pass()
	}
	return time.Since(start)
}
