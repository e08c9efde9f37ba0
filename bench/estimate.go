package main

import (
	"math"
	"sort"
)

// The robust estimators every metric goes through. They exist so that
// one slow block, one GC cycle or one unlucky draw moves a reported
// number as little as possible.

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianOfBlockMedians is the per-class latency estimator: the median,
// over timed blocks, of each block's own median. Blocks that hold no
// sample of the class are skipped.
func medianOfBlockMedians(blocks [][]float64) float64 {
	var meds []float64
	for _, b := range blocks {
		if len(b) > 0 {
			meds = append(meds, median(b))
		}
	}
	return median(meds)
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile reports the want-th percentile (nearest rank) of xs
// when at least minBeyond samples lie beyond it. With fewer samples it
// falls back to the highest percentile that still has minBeyond samples
// beyond it, and says which one it used; with minBeyond samples or
// fewer only the maximum is left, reported as percentile 1.
func tailPercentile(xs []float64, want float64) (value, used float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(want * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank >= minBeyond {
		return s[rank-1], want, n - rank
	}
	if n > minBeyond {
		rank = n - minBeyond
		return s[rank-1], float64(rank) / float64(n), minBeyond
	}
	return s[n-1], 1, 0
}

// geomean is the geometric mean of positive values; a non-positive
// value makes it 0 so a broken ratio cannot hide in the product.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method) —
// the rule the driver applies to a metric's ten values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4 // 1-based position, integer part
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
