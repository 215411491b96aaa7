package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number with its unit. Samples is how many
// measurements it summarises, where more than one went into it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// samples holds per-operation measurements in one unit.
type samples []float64

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// pct returns the q-quantile (0 <= q <= 1), interpolating linearly
// between the two nearest ranks.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.pct(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(s, n=4) (its default "exclusive" method), so
// spreads computed here agree with the ones a Python harness computes
// from the same runs. It needs at least two values.
func (s samples) quartiles() (q1, q2, q3 float64, ok bool) {
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, false
	}
	c := s.sorted()
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (c[j-1]*float64(n-delta) + c[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// spread is the distance between the first and third quartiles as a
// share of the median.
func (s samples) spread() (float64, bool) {
	q1, _, q3, ok := s.quartiles()
	med := s.median()
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeCounters is a reading of the process-wide counters the
// benchmark takes around a measured window, from runtime/metrics (no
// stop-the-world, unlike runtime.ReadMemStats).
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// gcFrac is the share of the process's CPU time spent in the garbage
// collector between two readings.
func gcFrac(a, b runtimeCounters) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// Seed domains, so the fleet's pool jobs, fresh jobs and client streams
// and the suite's pass seeds never share a random stream.
const (
	domainPool = iota + 1
	domainFresh
	domainClient
	domainSuite
)

// derive mixes its parts into one nonzero 64-bit seed (a splitmix64
// chain), so every input the benchmark generates is a function of
// -seed alone and distinct parts give independent streams.
func derive(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		h = 1
	}
	return h
}
