package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs; 0 for
// an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean of the positive values of xs; 0 when there are none. Per-class
// latencies are combined with it so that the combined number is not a median
// over a four-mode mixture, and a 10% change in any class moves it alike.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartileSpread is (Q3 - Q1) / median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is how
// the acceptance runs judge a metric's steadiness. 0 with fewer than two
// values or a zero median.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// byGoodness returns xs sorted best first: ascending when lower is better,
// descending when higher is.
func byGoodness(xs []float64, better string) []float64 {
	s := sorted(xs)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return s
}

// bestSpread is how far the third-best of xs is from the best, as a share of
// the best: the steadiness of a metric reported as its best repetition. With
// fewer than three values there is no telling, and it is +Inf.
func bestSpread(xs []float64, better string) float64 {
	if len(xs) < 3 {
		return math.Inf(1)
	}
	s := byGoodness(xs, better)
	if s[0] == 0 {
		return 0
	}
	return math.Abs(s[2]-s[0]) / s[0]
}
