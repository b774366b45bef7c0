package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},
		{11, 1 - 10.0/11},
		{100, 0.9},
		{500, 0.98},
		{999, 1 - 10.0/999},
		{1000, 0.99},
		{50000, 0.99},
	} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailQuantile(tc.n); q > 0 {
			if beyond := float64(tc.n) * (1 - q); beyond < tailSamples-1e-9 {
				t.Errorf("n=%d: percentile %v leaves %.2f samples beyond it", tc.n, q, beyond)
			}
		}
	}
}

func TestSummarizeReportsMeasuredValues(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	s := summarize(vals)
	if s.n != 200 || s.p50 != 100 {
		t.Fatalf("n=%d p50=%v, want 200 and 100", s.n, s.p50)
	}
	// 200 samples: the tail is p95, with samples 191..200 beyond it.
	if s.tailQ != 0.95 || s.tail != 190 {
		t.Fatalf("tail p%v = %v, want p0.95 = 190", s.tailQ, s.tail)
	}
	if got := summarize([]float64{3, 1, 2}); got.tail != 3 || got.p50 != 2 {
		t.Fatalf("few samples: tail %v p50 %v, want the maximum 3 and 2", got.tail, got.p50)
	}
}

// step builds a ladder step result directly.
func step(rate, achieved, tailMS float64, failures int, lagMS float64, limitMS float64) stepResult {
	st := stepResult{rate: rate, achieved: achieved, failures: failures, lagTail: lagMS}
	st.lat.tail = tailMS
	st.pass = passes(tailMS, failures, lagMS, limitMS)
	return st
}

func TestPassesRule(t *testing.T) {
	for _, tc := range []struct {
		tail     float64
		failures int
		lag      float64
		want     bool
	}{
		{19.9, 0, 1, true},
		{20, 0, 1, true},
		{20.1, 0, 1, false},
		{5, 1, 1, false},  // a failed or refused request misses the limit
		{5, 0, 25, false}, // the generator fell behind: a growing backlog
	} {
		if got := passes(tc.tail, tc.failures, tc.lag, 20); got != tc.want {
			t.Errorf("passes(tail %v, failures %d, lag %v) = %v, want %v", tc.tail, tc.failures, tc.lag, got, tc.want)
		}
	}
}

func TestMaxRate(t *testing.T) {
	const limit = 20.0
	for _, tc := range []struct {
		name  string
		steps []stepResult
		want  float64
	}{
		{"all pass: top achieved", []stepResult{step(500, 499, 2, 0, 0, limit), step(1000, 998, 4, 0, 0, limit)}, 998},
		{"first fails", []stepResult{step(500, 499, 30, 0, 0, limit), step(1000, 998, 4, 0, 0, limit)}, 0},
		{"errors stop without interpolation", []stepResult{step(500, 499, 2, 0, 0, limit), step(1000, 900, 4, 3, 0, limit)}, 499},
		{
			// log latency linear in rate: 5 ms at 1000, 80 ms at 2000
			// crosses 20 ms halfway.
			"interpolated crossing", []stepResult{step(1000, 1000, 5, 0, 0, limit), step(2000, 1990, 80, 0, 0, limit)}, 1500,
		},
		{
			"a lucky step above a failure does not count",
			[]stepResult{step(1000, 1000, 5, 0, 0, limit), step(2000, 1990, 80, 0, 0, limit), step(4000, 3990, 3, 0, 0, limit)}, 1500,
		},
		{
			"backlog step still interpolates on its tail",
			[]stepResult{step(1000, 1000, 5, 0, 0, limit), step(2000, 1500, 80, 0, 300, limit)}, 1500,
		},
	} {
		if got := maxRate(tc.steps, limit); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: maxRate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEvaluateStepTimesFromDueTime(t *testing.T) {
	t0 := time.Now()
	rq := request{route: routeRanking}
	var results []result
	// 200 requests due every millisecond; the 100th stalls 100 ms and
	// every later one waits behind it.
	for i := 0; i < 200; i++ {
		due := t0.Add(time.Duration(i) * time.Millisecond)
		sent, done := due, due.Add(500*time.Microsecond)
		switch {
		case i == 100:
			done = due.Add(100 * time.Millisecond)
		case i > 100:
			sent = t0.Add(200 * time.Millisecond)
			done = sent.Add(500 * time.Microsecond)
		}
		results = append(results, result{req: &rq, due: due, sent: sent, done: done, status: 200, latency: done.Sub(due)})
	}
	st := evaluateStep(1000, results, 20, isRead, one)
	if st.pass {
		t.Fatalf("a 100 ms stall passed a 20 ms limit: %+v", st.lat)
	}
	// Requests due during the stall were sent up to 99 ms late.
	if st.lag.tail < 50 {
		t.Fatalf("lag tail %v ms, want the queued requests' wait (>= 50 ms)", st.lag.tail)
	}
	if st.failures != 0 {
		t.Fatalf("failures %d, want 0", st.failures)
	}
}

func TestMergeSegmentsJudgesSegmentsAsOneStep(t *testing.T) {
	rq := request{route: routeRanking}
	// Two segments of 100 requests at 1000/s, a minute apart; every
	// request takes 1 ms, and the second segment's last tenth is sent
	// 30 ms late.
	segment := func(t0 time.Time, lateTail bool) stepResult {
		var results []result
		for i := 0; i < 100; i++ {
			due := t0.Add(time.Duration(i) * time.Millisecond)
			sent := due
			if lateTail && i >= 90 {
				sent = due.Add(30 * time.Millisecond)
			}
			done := sent.Add(time.Millisecond)
			results = append(results, result{req: &rq, due: due, sent: sent, done: done, status: 200, latency: done.Sub(due)})
		}
		return evaluateStep(1000, results, 20, isRead, one)
	}
	t0 := time.Now()
	a, b := segment(t0, false), segment(t0.Add(time.Minute), true)
	st := mergeSegments([]stepResult{a, b}, 20, isRead, one)
	if st.lat.n != 200 {
		t.Fatalf("merged %d latencies, want 200", st.lat.n)
	}
	// The rate is the segments' own, not 200 requests over a minute.
	if want := (a.achieved + b.achieved) / 2; math.Abs(st.achieved-want) > 1e-9 || st.achieved < 500 {
		t.Fatalf("achieved %v/s, want the segments' mean %v/s", st.achieved, want)
	}
	// The late tail of the second segment fails the merged step.
	if st.lagTail != b.lagTail || st.pass {
		t.Fatalf("lag tail %v ms (second segment %v ms), pass %v; want the worst segment's lag and a fail", st.lagTail, b.lagTail, st.pass)
	}
}

func TestNaiveAUCMatchesPairCount(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.8, 0.3, 0.1}
	failed := []bool{true, false, true, false, true}
	// pairs (pos, neg): (0.9,0.8)=1 (0.9,0.3)=1 (0.8,0.8)=.5 (0.8,0.3)=1
	// (0.1,0.8)=0 (0.1,0.3)=0 → 3.5 of 6.
	if got := naiveAUC(scores, failed); math.Abs(got-3.5/6) > 1e-15 {
		t.Fatalf("naiveAUC = %v, want %v", got, 3.5/6)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "train.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.fit", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "eval.score", Start: 50, End: 70}, // overlaps core.fit
		{ID: 4, Parent: 2, Name: "core.inner", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]float64{"train": 40e-9, "core": 40e-9 + 10e-9, "eval": 20e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}
