package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"
)

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s. Unlike
// math/rand's Zipf it accepts s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	return min(k, len(z.cdf)-1)
}

// sample is one request's host and simulated latency and when it ended.
type sample struct {
	host, sim uint32 // ns, saturated at MaxUint32
	doneMs    uint32 // ms since the phase began
}

// sampler keeps per-request samples of one worker in preallocated memory.
// When the buffer fills it drops every other sample and from then on keeps
// every second request, so a long run stays a uniform sample of all its
// requests.
type sampler struct {
	samples []sample
	stride  int64
	seen    int64
}

func newSampler(capacity int) *sampler {
	return &sampler{samples: make([]sample, 0, capacity), stride: 1}
}

func (s *sampler) add(x sample) {
	s.seen++
	if (s.seen-1)%s.stride != 0 {
		return
	}
	if len(s.samples) == cap(s.samples) {
		for i := 0; 2*i < len(s.samples); i++ {
			s.samples[i] = s.samples[2*i]
		}
		s.samples = s.samples[:(len(s.samples)+1)/2]
		s.stride *= 2
		if (s.seen-1)%s.stride != 0 {
			return
		}
	}
	s.samples = append(s.samples, x)
}

// simNs returns the simulated latency of every sample.
func simNs(xs []sample) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = x.sim
	}
	return out
}

// timeSlices cuts a phase of length d into n equal slices and returns the
// host latencies of the samples that ended in each.
func timeSlices(xs []sample, d time.Duration, n int) [][]uint32 {
	buckets := make([][]uint32, n)
	width := max(d.Milliseconds()/int64(n), 1)
	for _, x := range xs {
		k := min(int(int64(x.doneMs)/width), n-1)
		buckets[k] = append(buckets[k], x.host)
	}
	return buckets
}

// slicedHostQuantile returns the median over n time slices of the phase of
// each slice's q-quantile of host latency. A host stall confined to a few
// slices moves those slices' values, not the run's.
func slicedHostQuantile(xs []sample, d time.Duration, n int, q float64) float64 {
	var per []float64
	for _, b := range timeSlices(xs, d, n) {
		if len(b) > 0 {
			per = append(per, quantile(b, q))
		}
	}
	return median(per)
}

// slicedRate returns the median over n time slices of the phase of each
// slice's request rate, per second. Samples are a uniform subset of the
// requests, so a slice's share of the samples is its share of the requests.
func slicedRate(xs []sample, requests int64, d time.Duration, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	width := d.Seconds() / float64(n)
	per := make([]float64, n)
	for k, b := range timeSlices(xs, d, n) {
		per[k] = float64(requests) * float64(len(b)) / float64(len(xs)) / width
	}
	return median(per)
}

func sat32(v int64) uint32 {
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(max(v, 0))
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile[T uint32 | int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[lo+1])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the mean of xs, or 0 for no values.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
