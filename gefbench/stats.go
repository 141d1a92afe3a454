package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// equalBits reports whether two prediction vectors are bitwise equal
// (NaN payloads included).
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// op is one successful operation of a measured window: when it started,
// counted from the window's start, and how long it took.
type op struct{ at, latency time.Duration }

// windowStats summarizes one kind of operation over a measured window.
// The window is cut into equal slices, and each figure is taken over
// the per-slice figures at their quiet-side quartile: the lower
// quartile of the slices' latencies and the upper quartile of their
// rates. Load from outside the benchmark only ever slows a slice down,
// so stretches of it move this quartile less than a median or a pooled
// figure; a change in the program moves every slice, and the quartile
// with them. With one slice each figure is the window's own.
type windowStats struct {
	rate, p50, p90 float64 // 1/s, ms, ms
	n              int
	slices         [][3]float64 // per slice: rate, p50, p90
}

func summarize(ops []op, window time.Duration, slices int) (ws windowStats) {
	per := make([][]op, slices)
	for _, o := range ops {
		i := min(int(int64(o.at)*int64(slices)/int64(window)), slices-1)
		per[i] = append(per[i], o)
	}
	var rates, p50s, p90s []float64
	for _, sops := range per {
		var lat []float64
		for _, o := range sops {
			lat = append(lat, ms(o.latency))
		}
		sl := [3]float64{completionRate(sops)}
		if len(lat) > 0 {
			sl[1], sl[2] = quantile(lat, 0.5), quantile(lat, 0.9)
			p50s = append(p50s, sl[1])
			p90s = append(p90s, sl[2])
		}
		rates = append(rates, sl[0])
		ws.slices = append(ws.slices, sl)
	}
	ws.rate, ws.p50, ws.p90, ws.n = quantile(rates, 0.75), quantile(p50s, 0.25), quantile(p90s, 0.25), len(ops)
	return ws
}

// completionRate is the rate at which ops completed: one less than their
// count over the time from the first completion to the last.
func completionRate(ops []op) float64 {
	if len(ops) < 2 {
		return 0
	}
	first, last := ops[0].at+ops[0].latency, ops[0].at+ops[0].latency
	for _, o := range ops[1:] {
		end := o.at + o.latency
		first, last = min(first, end), max(last, end)
	}
	if last <= first {
		return 0
	}
	return float64(len(ops)-1) / (last - first).Seconds()
}
