package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer samples is one or two outliers, not a
// percentile.
const tailSamples = 10

// tailQuantile returns the highest percentile of n samples that still has
// tailSamples samples beyond it, capped at the 99th: p99 from 1000
// samples on, p(1-10/n) below that. It returns 0 when n is too small
// for any tail (n <= tailSamples).
func tailQuantile(n int) float64 {
	if n <= tailSamples {
		return 0
	}
	q := 1 - float64(tailSamples)/float64(n)
	return math.Min(q, 0.99)
}

// quantile returns the q-quantile of sorted (nearest rank, so the value
// is always one that was measured). sorted must be ascending.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is the median and tail of one set of timings.
type summary struct {
	n     int
	p50   float64
	tail  float64 // value at tailQ
	tailQ float64 // the percentile tail reports (0.99 from 1000 samples)
}

func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	sum := summary{n: len(s), p50: quantile(s, 0.5), tailQ: q}
	if q > 0 {
		sum.tail = quantile(s, q)
	} else if len(s) > 0 {
		sum.tail = s[len(s)-1]
	}
	return sum
}

func median(values []float64) float64 { return summarize(values).p50 }

// windowSize is the sample count of one window of windowedTail: the
// fewest samples that give a p99 with tailSamples beyond it.
const windowSize = 1000

// windowedTail splits values, in schedule order, into consecutive windows
// of windowSize samples (the last one takes the remainder) and returns
// the median of the windows' tails. On a shared machine one stall of a
// few tens of milliseconds delays every request due during it, and sets
// the p99 of whatever window it falls in; the median over windows is the
// tail the service holds for most of the step, not the longest stall.
// Below two windows it is the plain tail.
func windowedTail(values []float64) float64 {
	tails := windowTails(values)
	sort.Float64s(tails)
	w := len(tails)
	if w%2 == 1 {
		return tails[w/2]
	}
	return (tails[w/2-1] + tails[w/2]) / 2
}

// windowTails returns the tail of each window of windowedTail, in order.
func windowTails(values []float64) []float64 {
	w := len(values) / windowSize
	if w < 2 {
		return []float64{summarize(values).tail}
	}
	tails := make([]float64, w)
	for i := range tails {
		end := (i + 1) * windowSize
		if i == w-1 {
			end = len(values)
		}
		tails[i] = summarize(values[i*windowSize : end]).tail
	}
	return tails
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
