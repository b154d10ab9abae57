package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-size rule for percentiles: a percentile is
// reported only with at least this many samples above it; with fewer, the
// highest percentile that has them is reported instead, and says so.
const minBeyond = 10

// quantile is one reported percentile.
type quantile struct {
	value float64 // in the caller's unit
	at    float64 // the percentile actually reported, ≤ the one asked for
	n     int     // samples
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// lowered to the highest percentile with at least minBeyond samples above
// it. With minBeyond samples or fewer it returns the minimum. xs is sorted
// in place.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	if n == 0 {
		return quantile{}, fmt.Errorf("no samples for p%g", p)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = 1
	}
	return quantile{value: xs[rank-1], at: 100 * float64(rank) / float64(n), n: n}, nil
}

// durationsIn converts durations to floats in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// sloShare is the share of attempted open-loop explains that were verified
// and answered within limit of their due time. A failed request counts as
// a miss.
func sloShare(samples []sample, limit time.Duration) (float64, int) {
	attempted, ok := 0, 0
	for i := range samples {
		s := &samples[i]
		if s.kind != explainOp {
			continue
		}
		attempted++
		if !s.failed() && s.lat <= limit {
			ok++
		}
	}
	return ratio(float64(ok), float64(attempted)), attempted
}

// window is the span over which a run's rates and latency percentiles are
// taken before their median is reported: a stall of the shared CPUs or
// disk then moves one window's figure, not the run's.
const window = time.Second

// windowed splits samples into the consecutive windows that fit whole in
// span, by at(s); samples past the last whole window are left out.
// A span shorter than one window is one window.
func windowed(samples []sample, at func(*sample) time.Duration, span time.Duration) [][]sample {
	if span < window {
		return [][]sample{samples}
	}
	out := make([][]sample, int(span/window))
	for i := range samples {
		if k := int(at(&samples[i]) / window); k < len(out) {
			out[k] = append(out[k], samples[i])
		}
	}
	return out
}

// windowedPercentile is the median over windows of the p-th percentile of
// answered requests' latency, in ms, taken under the sample rule within
// each window. at reports the lowest percentile used, n all samples.
func windowedPercentile(wins [][]sample, p float64) (quantile, int, error) {
	var vals []float64
	out := quantile{at: p}
	for _, w := range wins {
		var lat []time.Duration
		for i := range w {
			if !w[i].failed() {
				lat = append(lat, w[i].lat)
			}
		}
		q, err := percentile(durationsIn(lat, time.Millisecond), p)
		if err != nil {
			return quantile{}, 0, err
		}
		vals = append(vals, q.value)
		out.at = math.Min(out.at, q.at)
		out.n += q.n
	}
	if len(vals) == 0 {
		return quantile{}, 0, fmt.Errorf("no samples for p%g", p)
	}
	out.value = median(vals)
	return out, len(vals), nil
}

// windowedRate is the median over windows of completion time of verified
// explains per second.
func windowedRate(samples []sample, span time.Duration) (float64, int) {
	var rates []float64
	secs := window.Seconds()
	if span < window {
		secs = span.Seconds()
	}
	for _, w := range windowed(samples, func(s *sample) time.Duration { return s.end }, span) {
		ok := 0
		for i := range w {
			if w[i].kind == explainOp && !w[i].failed() {
				ok++
			}
		}
		rates = append(rates, float64(ok)/secs)
	}
	return median(rates), len(rates)
}

// windowedCost is the median over the windows of a closed loop of the
// server CPU time spent per verified explain completed in the window, in
// µs. cpu holds the server's CPU seconds at the phase start and at each
// window's end; windows without both ends or without explains are left out.
func windowedCost(samples []sample, cpu []float64, span time.Duration) (float64, int) {
	var costs []float64
	for k, w := range windowed(samples, func(s *sample) time.Duration { return s.end }, span) {
		if k+1 >= len(cpu) {
			break
		}
		ok := 0
		for i := range w {
			if w[i].kind == explainOp && !w[i].failed() {
				ok++
			}
		}
		if ok > 0 {
			costs = append(costs, (cpu[k+1]-cpu[k])*1e6/float64(ok))
		}
	}
	return median(costs), len(costs)
}

// windowedRatio is the median over windows of the ratio of two processes'
// CPU time spent in the window. num and den hold their CPU seconds at the
// same instants: the phase start and each window's end.
func windowedRatio(num, den []float64) (float64, int) {
	var rs []float64
	for k := 1; k < len(num) && k < len(den); k++ {
		if d := den[k] - den[k-1]; d > 0 {
			rs = append(rs, (num[k]-num[k-1])/d)
		}
	}
	return median(rs), len(rs)
}
