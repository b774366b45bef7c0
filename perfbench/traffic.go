package main

// Generated inputs: the read mix and the event stream. Everything here is
// a function of the seed and the served datasets.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/dataset"
	"repro/internal/obs"
)

const servedModel = "DirectAUC-ES"

// shardInfo is one served region as the generator sees it.
type shardInfo struct {
	region string // as served, e.g. "A" or "METRO/s01"
	token  string // its /metrics name token
	net    *dataset.Network
	// failPipes take failure events; renewPipes (a disjoint tail of the
	// registry) take renewals, so a renewal never moves the laid year of
	// a pipe that also has live failures.
	failPipes, renewPipes []*dataset.Pipe
}

func newShardInfo(net *dataset.Network) *shardInfo {
	si := &shardInfo{region: net.Region, token: obs.SanitizeMetricName(net.Region), net: net}
	pipes := net.Pipes()
	nRenew := len(pipes) / 100
	for i := range pipes {
		p := &pipes[i]
		switch {
		case i >= len(pipes)-nRenew:
			si.renewPipes = append(si.renewPipes, p)
		case p.LaidYear <= net.ObservedTo:
			si.failPipes = append(si.failPipes, p)
		}
	}
	return si
}

var (
	rankingTops = []int{10, 50, 100, 500}
	// Plan cost models: the default (no field) plus two overrides, each
	// of which makes the server build a second priced prefix.
	planInspectCost = []float64{0, 9000, 12500}
)

// planBudgets is the size of the plan budget key space per region and
// cost model. With ~25% of reads being plans, a ladder of a few thousand
// plans draws most budgets once, so a measured share of plans misses the
// response cache; the traced run reports it as respcache.hit_ratio and
// serve.plan.cache_hit_ratio.
const planBudgets = 4000

// readMix returns n reads: ~60% ranking, ~25% plan, ~10% bulk rank, ~5%
// pipe lookup, each on a random region.
func readMix(rng *rand.Rand, shards []*shardInfo, n int) []request {
	regions := make([]string, len(shards))
	for i, s := range shards {
		regions[i] = s.region
	}
	reqs := make([]request, n)
	for i := range reqs {
		sh := shards[rng.Intn(len(shards))]
		reg := url.QueryEscape(sh.region)
		switch x := rng.Float64(); {
		case x < 0.60:
			top := rankingTops[rng.Intn(len(rankingTops))]
			reqs[i] = request{route: routeRanking, method: "GET",
				path: fmt.Sprintf("/api/models/%s/ranking?top=%d&region=%s", servedModel, top, reg)}
		case x < 0.85:
			body := map[string]any{"model": servedModel, "region": sh.region, "budget_km": 1 + rng.Intn(planBudgets)}
			if c := planInspectCost[rng.Intn(len(planInspectCost))]; c > 0 {
				body["inspection_per_km"] = c
			}
			reqs[i] = request{route: routePlan, method: "POST", path: "/api/plan", body: mustJSON(body)}
		case x < 0.95:
			k := 1 + rng.Intn(len(regions))
			pick := rng.Perm(len(regions))[:k]
			rs := make([]string, k)
			for j, p := range pick {
				rs[j] = regions[p]
			}
			body := map[string]any{"model": servedModel, "top": rankingTops[rng.Intn(3)], "regions": rs}
			reqs[i] = request{route: routeBulkRank, method: "POST", path: "/api/bulk/rank", body: mustJSON(body), ndjson: true}
		default:
			p := sh.failPipes[rng.Intn(len(sh.failPipes))]
			reqs[i] = request{route: routePipe, method: "GET",
				path: "/api/pipes/" + url.PathEscape(p.ID) + "?region=" + reg}
		}
	}
	return reqs
}

// event is one live event as POST /api/events takes it.
type event struct {
	ID      string `json:"id"`
	Region  string `json:"region"`
	Type    string `json:"type,omitempty"`
	PipeID  string `json:"pipe_id"`
	Segment int    `json:"segment,omitempty"`
	Year    int    `json:"year"`
	Day     int    `json:"day,omitempty"`
	Mode    string `json:"mode,omitempty"`
}

var failureModes = []string{string(dataset.ModeBreak), string(dataset.ModeLeak), string(dataset.ModeBlockage)}

// eventStream generates events for one run. Years are pinned to
// [ObservedTo, ObservedTo+1] of the event's shard, inside the server's
// acceptance horizon whatever the wall clock says.
type eventStream struct {
	rng    *rand.Rand
	shards []*shardInfo
	prefix string
	next   int
	sent   []event // every distinct event generated so far
}

func (es *eventStream) newEvent() event {
	sh := es.shards[es.rng.Intn(len(es.shards))]
	es.next++
	ev := event{ID: fmt.Sprintf("%s-%d", es.prefix, es.next), Region: sh.region}
	if es.rng.Intn(100) == 0 && len(sh.renewPipes) > 0 {
		p := sh.renewPipes[es.rng.Intn(len(sh.renewPipes))]
		ev.Type, ev.PipeID, ev.Year = "renewal", p.ID, sh.net.ObservedTo+1
	} else {
		p := sh.failPipes[es.rng.Intn(len(sh.failPipes))]
		ev.PipeID = p.ID
		ev.Year = sh.net.ObservedTo + es.rng.Intn(2)
		ev.Day = 1 + es.rng.Intn(365)
		ev.Segment = es.rng.Intn(max(p.Segments, 1))
		ev.Mode = failureModes[es.rng.Intn(len(failureModes))]
	}
	es.sent = append(es.sent, ev)
	return ev
}

// posts returns event posts carrying n events in total: ~90% single JSON
// objects, the rest NDJSON batches of up to five, with ~2% of events
// re-sending an earlier event's ID (a client retry). The reads argument
// interleaves one read after each post.
func (es *eventStream) posts(n int, reads []request) []request {
	var out []request
	ri := 0
	for n > 0 {
		var evs []event
		if es.rng.Intn(10) == 0 && n > 1 {
			for k := min(5, n); k > 0; k-- {
				evs = append(evs, es.pick())
			}
		} else {
			evs = append(evs, es.pick())
		}
		n -= len(evs)
		out = append(out, eventPost(evs))
		if ri < len(reads) {
			out = append(out, reads[ri])
			ri++
		}
	}
	return out
}

// pick returns a fresh event, or ~2% of the time a retry of one sent at
// least 50 events ago (long acked).
func (es *eventStream) pick() event {
	if len(es.sent) > 50 && es.rng.Intn(50) == 0 {
		return es.sent[es.rng.Intn(len(es.sent)-50)]
	}
	return es.newEvent()
}

func eventPost(evs []event) request {
	rq := request{route: routeEvents, method: "POST", path: "/api/events"}
	if len(evs) == 1 {
		rq.body = mustJSON(evs[0])
	} else {
		var b strings.Builder
		for _, ev := range evs {
			b.Write(mustJSON(ev))
			b.WriteByte('\n')
		}
		rq.body, rq.ndjson = []byte(b.String()), true
	}
	for _, ev := range evs {
		rq.ids = append(rq.ids, ev.ID)
	}
	return rq
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever called on plain structs and maps
	}
	return b
}

// eventsResponse is the POST /api/events success body.
type eventsResponse struct {
	Accepted   int   `json:"accepted"`
	Duplicates int   `json:"duplicates"`
	LiveEvents int64 `json:"live_events"`
}
