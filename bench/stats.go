package main

import (
	"math"
	"sort"
	"sync"
)

// series collects the samples of one timing (milliseconds, unless the
// metric's unit says otherwise). Safe for concurrent add.
type series struct {
	mu sync.Mutex
	v  []float64
}

func (s *series) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *series) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// quantile reads quantile q (0..1) off an ascending slice by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidates for "the highest percentile with
// at least ten samples beyond it".
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// dist summarises one series the way every timing is reported: the
// median, the quartiles, and the highest percentile that still has ten
// samples beyond it, with the sample count.
type dist struct {
	N      int
	P25    float64
	P50    float64
	P75    float64
	P95    float64
	TailQ  float64
	TailV  float64
	sorted []float64
}

func summarise(s *series) dist {
	v := s.sorted()
	d := dist{N: len(v), sorted: v}
	if len(v) == 0 {
		return d
	}
	d.P25, d.P50, d.P75 = quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
	d.P95 = quantile(v, 0.95)
	d.TailQ = 0.5
	for _, q := range tailPercentiles {
		if float64(len(v))*(1-q) >= 10 {
			d.TailQ = q
		}
	}
	d.TailV = quantile(v, d.TailQ)
	return d
}

// median of a small slice of run-level values (set-up repeats, A/A sets).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
