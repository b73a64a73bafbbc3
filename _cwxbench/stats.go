package main

import (
	"math"
	"sort"
	"time"
)

// lat is a sample of values: per-op latencies in microseconds, or the
// per-set-up figures the median is taken over.
type lat []float64

func (l *lat) add(d time.Duration) { *l = append(*l, float64(d.Nanoseconds())/1e3) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for
// an empty sample. It sorts l in place.
func (l lat) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	sort.Float64s(l)
	i := int(math.Ceil(q*float64(len(l)))) - 1
	if i < 0 {
		i = 0
	}
	return l[i]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 derives independent per-node seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nodeSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)*1_000_003+uint64(i)) >> 1)
}
