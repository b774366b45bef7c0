package main

// Open-loop load generator. Requests are due on a fixed schedule (rate
// per second from the step start) whatever the server does, and each is
// timed from when it was due, not from when it was sent: a stall delays
// every request queued behind it, and that wait is counted instead of
// hidden (coordinated omission). At most conns requests are in flight,
// one per keep-alive connection.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// route names one kind of request; per-route figures are keyed by it.
type route string

const (
	routeRanking  route = "ranking"
	routePlan     route = "plan"
	routeBulkRank route = "bulkrank"
	routePipe     route = "pipe"
	routeEvents   route = "events"
)

// request is one operation the generator sends.
type request struct {
	route  route
	method string
	path   string
	body   []byte
	ndjson bool // request body and response are NDJSON
	// ids are the event IDs a POST /api/events carries.
	ids []string
}

// result is what happened to one request.
type result struct {
	req     *request
	due     time.Time
	sent    time.Time
	done    time.Time
	status  int
	err     error // transport error or failed response check
	traced  bool
	body    []byte // kept for events responses only
	latency time.Duration
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// newClient returns an HTTP client whose transport keeps at most conns
// connections to the server.
func newClient(conns int) *http.Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// runOpenLoop sends reqs at rate per second from conns workers and
// returns one result per request, in request order. With tr set, every
// second request is recorded as a span under parent, so traced and
// untraced requests of one step can be compared.
func runOpenLoop(ctx context.Context, client *http.Client, base string, reqs []request, rate float64, conns int, tr *tracer, parent int64) []result {
	results := make([]result, len(reqs))
	var next atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				res := &results[i]
				res.req, res.due = &reqs[i], due
				// Thue–Morse parity: half of any stride-2 subsequence
				// too, so interleaved routes are each half traced.
				res.traced = tr != nil && bits.OnesCount(uint(i))%2 == 1
				var end func()
				if res.traced {
					end = tr.start("loadgen."+string(reqs[i].route), parent)
				}
				send(ctx, client, base, res)
				if end != nil {
					end()
				}
			}
		}()
	}
	wg.Wait()
	for i := range results {
		check(&results[i])
	}
	return results
}

// send performs one request, reads and checks the whole response, and
// fills res. Latency runs from the due time to the last body byte.
func send(ctx context.Context, client *http.Client, base string, res *result) {
	rq := res.req
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	hreq, err := http.NewRequestWithContext(ctx, rq.method, base+rq.path, body)
	if err != nil {
		res.err = err
		return
	}
	if rq.body != nil {
		ct := "application/json"
		if rq.ndjson {
			ct = "application/x-ndjson"
		}
		hreq.Header.Set("Content-Type", ct)
	}
	res.sent = time.Now()
	resp, err := client.Do(hreq)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
	}
	res.done = time.Now()
	res.latency = res.done.Sub(res.due)
	if err != nil {
		res.err = err
		return
	}
	if res.status != http.StatusOK {
		res.err = fmt.Errorf("%s %s: status %d: %.200s", rq.method, rq.path, res.status, data)
		return
	}
	res.body = data
}

// check validates a completed request's body off the clock — parsing a
// large ranking while the step runs would delay the generator's next
// send — and keeps the body only for event acks, which are read later.
func check(res *result) {
	if res.req == nil || !res.ok() {
		return
	}
	res.err = checkBody(res.body, res.req.ndjson && res.req.route != routeEvents)
	if res.req.route != routeEvents {
		res.body = nil
	}
}

// checkBody requires a JSON document, or with ndjson one JSON document
// per non-empty line and at least one line.
func checkBody(data []byte, ndjson bool) error {
	if !ndjson {
		if !json.Valid(data) {
			return fmt.Errorf("response is not valid JSON: %.200s", data)
		}
		return nil
	}
	lines := 0
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !json.Valid(line) {
			return fmt.Errorf("NDJSON line %d is not valid JSON: %.200s", lines+1, line)
		}
		lines++
	}
	if lines == 0 {
		return fmt.Errorf("empty NDJSON response")
	}
	return nil
}

// stepResult is one ladder step: a fixed request list at a fixed rate.
type stepResult struct {
	rate     float64 // offered operations per second
	results  []result
	achieved float64 // operations completed per second
	failures int
	lat      summary   // latency (ms) of the limited route(s)
	latSeq   []float64 // the same latencies in schedule order
	lag      summary   // send lag behind schedule (ms), all requests
	lagTail  float64   // median lag (ms) over the last tenth of requests
	pass     bool
	steal    float64 // host steal (s, all CPUs) while the step ran, where measured
}

// evaluateStep summarizes a step against limitMS on the requests for
// which limited returns true. A step passes when the tail latency of
// those requests is within the limit, no request failed, and the
// generator did not fall behind its schedule by more than the limit over
// the step's last tenth (a growing backlog).
func evaluateStep(rate float64, results []result, limitMS float64, limited func(*request) bool, ops func(*request) int) stepResult {
	st := stepResult{rate: rate, results: results}
	var lat, lag []float64
	var first, last time.Time
	completed := 0
	for i := range results {
		r := &results[i]
		if r.req == nil {
			st.failures++
			continue
		}
		if !r.ok() {
			st.failures++
		} else {
			completed += ops(r.req)
		}
		if !r.sent.IsZero() {
			lag = append(lag, ms(r.sent.Sub(r.due)))
		}
		if limited(r.req) {
			lat = append(lat, ms(r.latency))
		}
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	st.lat, st.lag, st.latSeq = summarize(lat), summarize(lag), lat
	if n := len(lag); n > 0 {
		st.lagTail = median(lag[n-n/10-1:])
	}
	if span := last.Sub(first).Seconds(); span > 0 {
		st.achieved = float64(completed) / span
	}
	st.pass = passes(st.lat.tail, st.failures, st.lagTail, limitMS)
	return st
}

// mergeSegments judges the segments of one rate, run at different times,
// as a single step: latency and failures over all their requests, the
// mean of their achieved rates, and the worst segment's lag at its end.
func mergeSegments(segs []stepResult, limitMS float64, limited func(*request) bool, ops func(*request) int) stepResult {
	var all []result
	for _, sg := range segs {
		all = append(all, sg.results...)
	}
	st := evaluateStep(segs[0].rate, all, limitMS, limited, ops)
	st.achieved, st.lagTail = 0, 0
	for _, sg := range segs {
		st.achieved += sg.achieved / float64(len(segs))
		st.lagTail = max(st.lagTail, sg.lagTail)
		st.steal += sg.steal
	}
	st.pass = passes(st.lat.tail, st.failures, st.lagTail, limitMS)
	return st
}

// passes is the ladder's limit rule.
func passes(tailMS float64, failures int, lagTailMS, limitMS float64) bool {
	return failures == 0 && tailMS <= limitMS && lagTailMS <= limitMS
}

// maxRate returns the highest rate that meets limitMS. Steps count only
// up to the first that fails: a ladder runs in ascending order, and a rate
// above a failed one is not sustainable even if a lucky step met the
// limit. Between the last passing step and the first failing one the rate
// is interpolated where the tail latency crosses the limit, with log
// latency linear in rate, so the figure moves smoothly instead of
// jumping a whole step when one step's tail lands on the other side of
// the limit. (A growing backlog shows in that tail too: latency runs
// from the due time.) A step that failed on errors gives no
// interpolation, only its predecessor's achieved rate. With every step
// passing it is the top step's achieved rate, and 0 when the first step
// fails.
func maxRate(steps []stepResult, limitMS float64) float64 {
	best := 0.0
	for i, st := range steps {
		if st.pass {
			best = st.achieved
			continue
		}
		if i == 0 || st.failures > 0 {
			break
		}
		lo := steps[i-1]
		if lo.lat.tail > 0 && st.lat.tail > lo.lat.tail {
			f := math.Log(limitMS/lo.lat.tail) / math.Log(st.lat.tail/lo.lat.tail)
			best = lo.achieved + f*(st.rate-lo.rate)
		}
		break
	}
	return best
}
