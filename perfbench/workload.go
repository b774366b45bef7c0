package main

// One run of a workload: set up, retrain, read ladder, ingest ladder,
// freshness, kill and recover, and (traced runs only) the per-layer
// measurements.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/dataset"
)

// workload is one input set. Every workload runs the whole user journey;
// they differ in the data the retrain and the server work on.
type workload struct {
	name string
	// The retrain: a preset at trainScale, fitted with trainModel.
	trainPreset string
	trainScale  float64
	trainModel  string
	// The server: each preset at serveScale is one -data input; with
	// shards > 1 the single input is split by district.
	servePresets []string
	serveScale   float64
	shards       int
}

var workloads = []workload{
	// The paper's method at the paper's scale: region A in full (15k
	// pipes) under DirectAUC-ES with its default 120 generations, so
	// the retrain is fit-bound (core, eval, linalg, parallel). The server
	// holds regions A, B and C at 0.075 scale (0.9k-1.4k pipes), one
	// shard each: a rebuild pass still takes about two seconds, and two
	// freshness cycles (two passes each) fit a run.
	{name: "paper", trainPreset: "A", trainScale: 1, trainModel: "DirectAUC-ES",
		servePresets: []string{"A", "B", "C"}, serveScale: 0.075, shards: 1},
	// The data plane at ten times the paper's size: the metro preset in
	// full (120k pipes, 1.5M pipe-year rows) under RankSVM, the ES warm
	// start, so columnar load and feature build are a large share of
	// the retrain and the dense design matrix dominates its memory. The
	// server holds metro at 0.03 scale (3.6k pipes) split into three
	// district shards.
	{name: "metro", trainPreset: "metro", trainScale: 1, trainModel: "RankSVM",
		servePresets: []string{"metro"}, serveScale: 0.03, shards: 3},
}

// settings are the benchmark's fixed parameters.
type settings struct {
	setups    int       // set-ups per run; setup_s is their median
	retrains  int       // retrains per run; train_s is their median
	readRates []float64 // read ladder, req/s; the first is nominal
	// Read step lengths as shares of the run's seconds: each segment of
	// the nominal step (see readSegment), and each higher step.
	readSegmentShare, readStepShare float64
	eventRates                      []float64 // event ladder, events/s; the first is nominal
	// Fixed event counts: the nominal step, then each higher step. Fixed
	// counts keep the overlay each step runs against the same size on
	// every commit.
	nominalEvents, stepEvents int
	readLimitMS               float64 // tail latency limit for reads
	eventLimitMS              float64 // tail latency limit for event acks
	// rebuildInterval is the rebuilding writer's scheduler period, shorter
	// than one pass so that passes run back to back.
	rebuildInterval time.Duration
	conns           int
}

// defaultSettings were calibrated on a 2-vCPU box (see README.md).
func defaultSettings() settings {
	return settings{
		setups:           3,
		retrains:         3,
		readRates:        []float64{2000, 4000, 6000, 8000, 10000, 12000},
		readSegmentShare: 0.03,
		readStepShare:    0.03,
		eventRates:       []float64{500, 1000, 2000, 3000, 4000},
		nominalEvents:    2000,
		stepEvents:       1000,
		readLimitMS:      50,
		eventLimitMS:     50,
		rebuildInterval:  500 * time.Millisecond,
		conns:            min(2, runtime.NumCPU()),
	}
}

// runConfig is one invocation.
type runConfig struct {
	wl      workload
	set     settings
	seed    int64
	seconds float64
	trace   bool
	bin     string // directory holding pipegen and pipeserve
	self    string // this binary, for child retrains
	dir     string // scratch directory of this run
	base    *baseline
}

// outcome collects one run's figures and checks.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int // sample count behind each end-to-end figure
	attempted int
	failed    int
	problems  []string
	spans     []span
	steps     []string // one report line per ladder step
	stamp     stamp
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// count adds operations to attempted and failed.
func (o *outcome) count(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

// runWorkload performs one run. An error means the run could not
// complete; failed checks are recorded in the outcome instead.
func runWorkload(ctx context.Context, rc runConfig) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	o.stamp = machineStamp(rc.dir)
	tr := newTracer(fmt.Sprintf("%s-seed%d", rc.wl.name, rc.seed))
	if !rc.trace {
		tr = nil
	}
	client := newClient(rc.set.conns)
	defer client.CloseIdleConnections()
	j := &journey{rc: rc, o: o, client: client, tr: tr, rng: rand.New(rand.NewSource(rc.seed))}
	defer j.cleanup()
	phases := []struct {
		name string
		run  func(context.Context) error
	}{{"setup", j.setup}, {"retrain", j.retrain}, {"reads", j.reads}, {"ingest", j.ingest}, {"traced", j.traced}}
	for _, p := range phases {
		start := time.Now()
		if err := p.run(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		o.steps = append(o.steps, fmt.Sprintf("phase %-8s %6.1f s", p.name, time.Since(start).Seconds()))
	}
	if tr != nil {
		o.spans = tr.snapshot()
	}
	return o, nil
}

// journey is the state one run threads through its phases.
type journey struct {
	rc     runConfig
	o      *outcome
	client *http.Client
	tr     *tracer
	rng    *rand.Rand

	srv       *server
	trainPath string
	servePath []string
	readState string // state dir of the read server (models at seq 0)
	shards    []*shardInfo
	regions   []string

	untracedTrainS float64
	publicHash     string           // ranking hash of the public API's retrain
	freshETags     []string         // each shard's ETag once freshness was measured
	readsBefore    *metricsSnapshot // the read server's counters before any read
	nominalReads   []request        // the nominal read step's requests, all segments
	readSegs       []stepResult     // and each segment's result
	allPosts       []request        // every event post of the ingest ladder
	acked          map[string]event // acknowledged events by ID
	byID           map[string]event // every generated event by ID
	walDir         string
	nominalRead    stepResult
}

func (j *journey) cleanup() {
	if j.srv != nil {
		j.srv.kill()
		j.srv = nil
	}
}

// setup generates the datasets as PCOL files, boots the read server and
// publishes the served model on every shard, rc.set.setups times over;
// setup_s is the median. The last set-up's server stays up.
func (j *journey) setup(ctx context.Context) error {
	wl := j.rc.wl
	var wall, steal, times, publish []float64
	for k := 0; k < j.rc.set.setups; k++ {
		if j.srv != nil {
			if err := j.srv.stop(); err != nil {
				return fmt.Errorf("stop set-up server: %w", err)
			}
			j.srv = nil
		}
		dir := filepath.Join(j.rc.dir, fmt.Sprintf("setup%d", k))
		start, steal0 := time.Now(), stealSeconds()
		j.trainPath = filepath.Join(dir, "train")
		if err := j.pipegen(wl.trainPreset, wl.trainScale, j.trainPath); err != nil {
			return err
		}
		j.servePath = j.servePath[:0]
		args := []string{"-seed", strconv.FormatInt(j.rc.seed, 10)}
		for _, preset := range wl.servePresets {
			p := filepath.Join(dir, "serve-"+preset)
			if err := j.pipegen(preset, wl.serveScale, p); err != nil {
				return err
			}
			j.servePath = append(j.servePath, p)
			args = append(args, "-data", p)
		}
		if wl.shards > 1 {
			args = append(args, "-shards", strconv.Itoa(wl.shards))
		}
		j.readState = filepath.Join(dir, "state")
		args = append(args, "-state-dir", j.readState)
		srv, err := startServer(filepath.Join(j.rc.bin, "pipeserve"), args, filepath.Join(dir, "read-server.log"))
		if err != nil {
			return err
		}
		j.srv = srv
		if err := srv.waitReady(j.client, 60*time.Second); err != nil {
			return err
		}
		var regions []struct {
			Region string `json:"region"`
		}
		if err := getJSON(ctx, j.client, srv.base+"/api/regions", &regions); err != nil {
			return err
		}
		j.regions = j.regions[:0]
		for _, r := range regions {
			j.regions = append(j.regions, r.Region)
		}
		pubStart := time.Now()
		if err := j.publish(ctx); err != nil {
			return err
		}
		publish = append(publish, time.Since(pubStart).Seconds())
		wall = append(wall, time.Since(start).Seconds())
		steal = append(steal, stealSeconds()-steal0)
		times = append(times, lessSteal(wall[k], steal[k]))
	}
	j.o.e2e["setup_s"], j.o.samples["setup_s"] = median(times), len(times)
	j.o.steps = append(j.o.steps, fmt.Sprintf("set-up wall (s): %.3f, host steal (s): %.2f, less steal per CPU (s): %.3f", wall, steal, times))
	j.o.layer["serve.publish_s"] = median(publish)
	return j.loadShards()
}

func (j *journey) pipegen(preset string, scale float64, out string) error {
	cmd := exec.Command(filepath.Join(j.rc.bin, "pipegen"), "-region", preset,
		"-seed", strconv.FormatInt(j.rc.seed, 10), "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-format", "col", "-out", out)
	dieWithParent(cmd)
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("pipegen %s: %v: %s", preset, err, b)
	}
	return nil
}

// publish trains the served model on every shard at once, as an
// operator's first deploy would.
func (j *journey) publish(ctx context.Context) error {
	errs := make([]error, len(j.regions))
	var wg sync.WaitGroup
	for i, r := range j.regions {
		wg.Add(1)
		go func(i int, r string) {
			defer wg.Done()
			u := fmt.Sprintf("%s/api/models/%s/train?region=%s", j.srv.base, servedModel, url.QueryEscape(r))
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := j.client.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("publish %s: status %d: %.200s", r, resp.StatusCode, body)
			}
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadShards reads the served datasets the way the server splits them,
// so generated requests name real pipes, segments and years.
func (j *journey) loadShards() error {
	var nets []*dataset.Network
	for _, p := range j.servePath {
		n, err := pipefail.LoadNetwork(p)
		if err != nil {
			return err
		}
		nets = append(nets, n)
	}
	if j.rc.wl.shards > 1 {
		split, err := dataset.SplitDistricts(nets[0], j.rc.wl.shards)
		if err != nil {
			return err
		}
		nets = split
	}
	j.shards = j.shards[:0]
	for i, n := range nets {
		if i >= len(j.regions) || n.Region != j.regions[i] {
			return fmt.Errorf("served regions %v do not match the datasets", j.regions)
		}
		j.shards = append(j.shards, newShardInfo(n))
	}
	return nil
}

// retrain runs the child retrains against the published read server,
// with a segment of the nominal read step before the first and after
// each.
func (j *journey) retrain(ctx context.Context) error {
	set := j.rc.set
	var err error
	if j.readsBefore, err = scrape(ctx, j.client, j.srv.base); err != nil {
		return err
	}
	// Warm the connections and the ranking cache entries users would
	// find warm; plan budgets stay mostly cold.
	warm := readMix(j.rng, j.shards, 200)
	s0 := stealSeconds()
	st := evaluateStep(set.readRates[0], runOpenLoop(ctx, j.client, j.srv.base, warm, set.readRates[0], set.conns, nil, 0), set.readLimitMS, isRead, one)
	st.steal = stealSeconds() - s0
	j.countStep("warmup", st)
	j.readSegment(ctx, 0)
	var reps []*trainReport
	for len(reps) < set.retrains {
		rep, err := runTrainChild(j.rc.self, j.trainPath, j.rc.wl.trainModel, j.rc.seed, false)
		j.o.count(1, 0)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		j.readSegment(ctx, 0)
	}
	var wall, steal, cpu, secs, rss []float64
	for _, r := range reps {
		wall = append(wall, r.TrainS)
		steal = append(steal, r.StealS)
		cpu = append(cpu, r.CPUS)
		secs = append(secs, r.busyS())
		rss = append(rss, r.PeakRSSMB)
	}
	j.untracedTrainS = median(secs)
	j.o.steps = append(j.o.steps, fmt.Sprintf("retrain wall (s): %.3f, host steal (s): %.2f, less steal per CPU (s): %.3f, CPU (s): %.3f", wall, steal, secs, cpu))
	j.o.e2e["train_s"], j.o.samples["train_s"] = j.untracedTrainS, len(secs)
	j.o.e2e["train_peak_rss_mb"], j.o.samples["train_peak_rss_mb"] = median(rss), len(rss)
	j.o.e2e["test_auc"], j.o.samples["test_auc"] = reps[0].AUC, len(reps)
	j.publicHash = reps[0].RankingHash
	j.checkRetrains(reps)
	return nil
}

// checkRetrains: every retrain of a run must agree bit for bit, the AUC
// must match an independent computation, and a recorded seed must
// reproduce its recorded AUC and ranking hash.
func (j *journey) checkRetrains(reps []*trainReport) {
	first := reps[0]
	for i, r := range reps {
		if r.AUC != first.AUC || r.RankingHash != first.RankingHash {
			j.o.fail("retrain %d differs from retrain 0: auc %v vs %v, hash %s vs %s", i, r.AUC, first.AUC, r.RankingHash, first.RankingHash)
		}
		if math.IsNaN(r.NaiveAUC) || math.Abs(r.AUC-r.NaiveAUC) > 1e-9 {
			j.o.fail("retrain %d: AUC %v disagrees with the pairwise AUC %v", i, r.AUC, r.NaiveAUC)
		}
	}
	if first.AUC <= 0.5 || first.AUC >= 1 {
		j.o.fail("test AUC %v is no better than chance", first.AUC)
	}
	if j.rc.base == nil {
		return
	}
	if want, ok := j.rc.base.Recorded[j.rc.wl.name][strconv.FormatInt(j.rc.seed, 10)]; ok {
		if want.AUC != first.AUC || want.Hash != first.RankingHash {
			j.o.fail("seed %d: test AUC %v and ranking hash %s, recorded %v and %s", j.rc.seed, first.AUC, first.RankingHash, want.AUC, want.Hash)
		}
	}
}

// readSegment runs one segment of the nominal read step, with its spans
// under parent. The segments are spread over the run — before the first
// retrain, after each retrain (the server idles while one runs) and after
// each step of the ladder. read_p50_ms is the lowest segment p50: at this
// light load the median request waits on little but timer wake-ups, which
// a busy shared host delays for seconds at a time, so the quietest segment
// is the one that shows the server's own cost. Stalls are the tail's
// business (read.nominal.p99_ms).
func (j *journey) readSegment(ctx context.Context, parent int64) {
	set := j.rc.set
	n := int(set.readRates[0] * set.readSegmentShare * j.rc.seconds)
	reqs := readMix(j.rng, j.shards, n)
	s0 := stealSeconds()
	res := runOpenLoop(ctx, j.client, j.srv.base, reqs, set.readRates[0], set.conns, j.tr, parent)
	seg := evaluateStep(set.readRates[0], res, set.readLimitMS, isRead, one)
	seg.steal = stealSeconds() - s0
	j.countStep("read", seg)
	j.nominalReads = append(j.nominalReads, reqs...)
	j.readSegs = append(j.readSegs, seg)
}

// reads runs the read ladder above the nominal rate and the last nominal
// segment, and reports the read figures.
func (j *journey) reads(ctx context.Context) error {
	set := j.rc.set
	before := j.readsBefore
	var phase int64
	var endPhase func()
	if j.tr != nil {
		phase, endPhase = j.tr.begin("loadgen.read_ladder", 0)
	}
	var upper []stepResult
	for _, rate := range set.readRates[1:] {
		reqs := readMix(j.rng, j.shards, int(rate*set.readStepShare*j.rc.seconds))
		s0 := stealSeconds()
		st := evaluateStep(rate, runOpenLoop(ctx, j.client, j.srv.base, reqs, rate, set.conns, j.tr, phase), set.readLimitMS, isRead, one)
		st.steal = stealSeconds() - s0
		j.countStep("read", st)
		upper = append(upper, st)
		j.o.layer[fmt.Sprintf("read.rate%.0f.p99_ms", rate)] = st.lat.tail
		j.readSegment(ctx, phase)
	}
	if endPhase != nil {
		endPhase()
	}
	nominal := mergeSegments(j.readSegs, set.readLimitMS, isRead, one)
	steps := append([]stepResult{nominal}, upper...)
	j.o.layer[fmt.Sprintf("read.rate%.0f.p99_ms", nominal.rate)] = nominal.lat.tail
	after, err := scrape(ctx, j.client, j.srv.base)
	if err != nil {
		return err
	}
	nom := steps[0]
	if nom.failures > 0 {
		j.o.fail("read ladder: %d failures at the nominal rate %v req/s", nom.failures, nom.rate)
		for _, r := range nom.results {
			if r.err != nil {
				j.o.fail("read: %v", r.err)
				break
			}
		}
	}
	j.nominalRead = nom
	var p50s, steal []float64
	for _, sg := range j.readSegs {
		p50s = append(p50s, sg.lat.p50)
		steal = append(steal, sg.steal)
	}
	j.o.e2e["read_p50_ms"], j.o.samples["read_p50_ms"] = slices.Min(p50s), nom.lat.n
	j.o.layer["read.nominal.p99_ms"] = windowedTail(nom.latSeq)
	j.o.steps = append(j.o.steps, fmt.Sprintf("read   nominal segment p50s (ms): %.3f, host steal (s): %.2f, window p99s (ms): %.3f", p50s, steal, windowTails(nom.latSeq)))
	j.o.layer["read.max_rps"] = maxRate(steps, set.readLimitMS)
	j.o.layer["loadgen.lag_p99_ms"] = nom.lag.tail
	byRoute := map[route][]float64{}
	for _, r := range nom.results {
		if r.req != nil {
			byRoute[r.req.route] = append(byRoute[r.req.route], ms(r.latency))
		}
	}
	for _, rt := range []route{routeRanking, routePlan, routeBulkRank, routePipe} {
		j.o.layer["read."+string(rt)+".p99_ms"] = summarize(byRoute[rt]).tail
	}
	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	deltaSum := func(prefix, suffix string) float64 {
		return sumMatching(after.Counters, prefix, suffix) - sumMatching(before.Counters, prefix, suffix)
	}
	hits, misses := deltaSum("respcache.", ".hits"), deltaSum("respcache.", ".misses")
	j.o.layer["respcache.hits"], j.o.layer["respcache.misses"] = hits, misses
	j.o.layer["respcache.hit_ratio"] = ratio(hits, hits+misses)
	j.o.layer["respcache.evictions"] = deltaSum("respcache.", ".evictions")
	ph, pm := delta("serve.plan.cache_hits"), delta("serve.plan.cache_misses")
	j.o.layer["serve.plan.cache_hits"], j.o.layer["serve.plan.cache_misses"] = ph, pm
	j.o.layer["serve.plan.cache_hit_ratio"] = ratio(ph, ph+pm)
	j.o.layer["serve.plan.prefix_builds"] = delta("serve.plan.prefix_builds")
	if j.tr != nil {
		j.o.layer["trace.overhead.read_p50_ms"] = tracedOverhead(nom.results, isRead)
	}
	return nil
}

// countStep counts a step's operations and notes its figures for the
// report.
func (j *journey) countStep(kind string, st stepResult) {
	j.o.count(len(st.results), st.failures)
	j.o.steps = append(j.o.steps, fmt.Sprintf("%-6s step %6.0f/s: achieved %8.1f/s, p50 %7.3f ms, p%.1f %8.3f ms (n=%d), lag p%.1f %7.3f ms, failures %d, pass %v, host steal %.2f s",
		kind, st.rate, st.achieved, st.lat.p50, 100*st.lat.tailQ, st.lat.tail, st.lat.n, 100*st.lag.tailQ, st.lag.tail, st.failures, st.pass, st.steal))
}

func isRead(r *request) bool  { return r.route != routeEvents }
func isEvent(r *request) bool { return r.route == routeEvents }
func one(*request) int        { return 1 }
func eventsOf(r *request) int { return len(r.ids) }
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedOverhead is the median latency of the step's traced requests
// minus that of its untraced ones, in ms.
func tracedOverhead(results []result, keep func(*request) bool) float64 {
	var on, off []float64
	for i := range results {
		r := &results[i]
		if r.req == nil || !keep(r.req) || !r.ok() {
			continue
		}
		if r.traced {
			on = append(on, ms(r.latency))
		} else {
			off = append(off, ms(r.latency))
		}
	}
	return median(on) - median(off)
}

// ingest restarts the service as a writer (event log, state dir) and
// runs the event ladder with the rebuild scheduler off and
// -wal-sync=interval, so ack latency is the ingest path's own rather than
// the shared disk's fsync time. It then restarts the writer over the same
// directories with -wal-sync=always and the scheduler on a short
// interval, runs one mixed step while rebuilds republish, measures
// freshness, kills the process and measures recovery.
func (j *journey) ingest(ctx context.Context) error {
	set := j.rc.set
	if err := j.srv.stop(); err != nil {
		return fmt.Errorf("stop read server: %w", err)
	}
	j.srv = nil
	ingestState := filepath.Join(j.rc.dir, "ingest-state")
	if err := copyDir(j.readState, ingestState); err != nil {
		return err
	}
	j.walDir = filepath.Join(j.rc.dir, "wal")
	args := []string{"-seed", strconv.FormatInt(j.rc.seed, 10)}
	for _, p := range j.servePath {
		args = append(args, "-data", p)
	}
	if j.rc.wl.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(j.rc.wl.shards))
	}
	args = append(args, "-state-dir", ingestState, "-wal-dir", j.walDir)
	if err := j.boot(append(args, "-wal-sync", "interval"), "writer"); err != nil {
		return err
	}
	before, err := scrape(ctx, j.client, j.srv.base)
	if err != nil {
		return err
	}

	es := &eventStream{rng: j.rng, shards: j.shards, prefix: fmt.Sprintf("pb%d", j.rc.seed)}
	j.acked = map[string]event{}
	j.byID = map[string]event{}
	var phase int64
	var endPhase func()
	if j.tr != nil {
		phase, endPhase = j.tr.begin("loadgen.ingest_ladder", 0)
	}
	var steps []stepResult
	for i, rate := range set.eventRates {
		n := set.stepEvents
		if i == 0 {
			n = set.nominalEvents
		}
		st, _ := j.eventStep(ctx, es, rate, n, phase)
		steps = append(steps, st)
		j.o.layer[fmt.Sprintf("ingest.rate%.0f.p99_ms", rate)] = st.lat.tail
	}
	if endPhase != nil {
		endPhase()
	}
	nom := steps[0]
	if nom.failures > 0 {
		j.o.fail("event ladder: %d failures at the nominal rate %v events/s", nom.failures, nom.rate)
	}
	j.o.e2e["ingest_p50_ms"], j.o.samples["ingest_p50_ms"] = nom.lat.p50, nom.lat.n
	j.o.layer["ingest.nominal.p99_ms"] = windowedTail(nom.latSeq)
	j.o.steps = append(j.o.steps, fmt.Sprintf("events nominal window p99s (ms): %.3f", windowTails(nom.latSeq)))
	j.o.layer["ingest.max_eps"] = maxRate(steps, set.eventLimitMS)
	if j.tr != nil {
		j.o.layer["trace.overhead.ingest_p50_ms"] = tracedOverhead(nom.results, isEvent)
	}
	after, err := scrape(ctx, j.client, j.srv.base)
	if err != nil {
		return err
	}
	j.ingestLayers(before, after)
	if err := j.srv.stop(); err != nil {
		return fmt.Errorf("stop writer: %w", err)
	}
	j.srv = nil

	args = append(args, "-wal-sync", "always",
		"-rebuild-interval", set.rebuildInterval.String(), "-rebuild-workers", strconv.Itoa(len(j.shards)))
	if err := j.boot(args, "rebuilding-writer"); err != nil {
		return err
	}
	n := set.stepEvents / 2
	st, reads := j.eventStep(ctx, es, set.eventRates[0], n, 0)
	if st.failures > 0 {
		j.o.fail("%d failures in the mixed step under rebuilds", st.failures)
	}
	j.o.layer["ingest.rebuilding.event_p99_ms"] = st.lat.tail
	j.o.layer["ingest.rebuilding.read_p99_ms"] = reads.tail
	// Freshness and recovery alternate, so that the samples of each are
	// spread over this part of the run and a slow stretch of the machine
	// spoils a few of them, not the median.
	var fresh, recov []float64
	for k := 0; k < freshnessCycles; k++ {
		f, err := j.freshnessCycle(ctx, es)
		if err != nil {
			return err
		}
		fresh = append(fresh, f)
		if k == 0 {
			// The first always-sync writer's counters, before a restart
			// resets them.
			m, err := scrape(ctx, j.client, j.srv.base)
			if err != nil {
				return err
			}
			j.walLayers(m)
			j.o.layer["serve.sched.rebuilds"] = m.Counters["serve.sched.rebuilds"]
			j.o.layer["wal.size_mb"] = sumMatching(m.Gauges, "serve.wal", ".size_bytes") / (1 << 20)
			j.o.layer["wal.segments"] = sumMatching(m.Gauges, "serve.wal", ".segments")
			j.o.layer["serve.live_events"] = sumMatching(m.Gauges, "serve.shard.", ".live_events")
			j.o.layer["serve.peak_rss_mb"] = j.srv.peakRSSMB()
		}
		r, err := j.recover(ctx, args, k)
		if err != nil {
			return err
		}
		recov = append(recov, r...)
	}
	j.o.layer["ingest.freshness_s"] = median(fresh)
	j.o.layer["ingest.recover_s"] = median(recov)
	j.o.steps = append(j.o.steps, fmt.Sprintf("freshness %.3f s (median of %d), recovery %.3f s (median of %d)",
		median(fresh), len(fresh), median(recov), len(recov)))
	return j.checkRecovered(ctx)
}

// boot starts pipeserve with args and waits until it is ready.
func (j *journey) boot(args []string, name string) error {
	srv, err := startServer(filepath.Join(j.rc.bin, "pipeserve"), args, filepath.Join(j.rc.dir, name+"-server.log"))
	if err != nil {
		return err
	}
	j.srv = srv
	return srv.waitReady(j.client, 60*time.Second)
}

// eventStep sends n events at rate events/s, one read after each post,
// and returns the step judged on event acks plus the reads' latency.
func (j *journey) eventStep(ctx context.Context, es *eventStream, rate float64, n int, phase int64) (stepResult, summary) {
	set := j.rc.set
	items := es.posts(n, readMix(j.rng, j.shards, n))
	for _, ev := range es.sent {
		j.byID[ev.ID] = ev
	}
	itemRate := float64(len(items)) * rate / float64(n)
	s0 := stealSeconds()
	results := runOpenLoop(ctx, j.client, j.srv.base, items, itemRate, set.conns, j.tr, phase)
	st := evaluateStep(rate, results, set.eventLimitMS, isEvent, eventsOf)
	st.steal = stealSeconds() - s0
	j.countStep("events", st)
	j.recordAcks(results)
	var rl []float64
	for i, it := range items {
		if it.route == routeEvents {
			j.allPosts = append(j.allPosts, it)
		} else {
			rl = append(rl, ms(results[i].latency))
		}
	}
	return st, summarize(rl)
}

// recordAcks folds the acknowledged events of one step into j.acked and
// checks each response's accounting.
func (j *journey) recordAcks(results []result) {
	for _, r := range results {
		if r.req == nil || r.req.route != routeEvents || !r.ok() {
			continue
		}
		var resp eventsResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			j.o.fail("events response: %v", err)
			continue
		}
		if resp.Accepted+resp.Duplicates != len(r.req.ids) {
			j.o.fail("events response accounts for %d+%d of %d events", resp.Accepted, resp.Duplicates, len(r.req.ids))
		}
		for _, id := range r.req.ids {
			j.acked[id] = j.byID[id]
		}
	}
}

// freshnessCycles is how many times a run measures freshness;
// ingest.freshness_s is their median. A rebuild pass's length varies from
// one pass to the next by as much as between runs, so one cycle per run
// would carry that noise into the figure.
const freshnessCycles = 2

// freshnessMargin is how long after a pass starts a cycle sends its
// measured ack.
const freshnessMargin = 250 * time.Millisecond

// freshnessCycle measures how long an acknowledged event takes to reach every
// shard's served model. It first acknowledges one event per shard, so
// every shard is stale, then waits for the scheduler's next pass to start
// (it rebuilds every shard), and acknowledges one more event per shard
// just after: the worst case, in which the event just missed a pass and
// is picked up by the next one. The interval is shorter than a pass, so
// passes run back to back and the figure is about two rebuild times on
// every run. A shard's final ETag is the one it serves once a whole pass
// has started and finished after the ack; it was fresh from the first
// moment it served that ETag.
//
// The figure counts only if that ETag belongs to a model retrained on the
// acknowledged event: every shard must have rebuilt after the ack with no
// rebuild failing, its final ETag must differ from the one it served
// before the ack, and every acknowledged event must be live. recover
// then requires the final ETags to equal the ones the restarted server
// re-derives by ranking the saved model on the whole replayed log.
func (j *journey) freshnessCycle(ctx context.Context, es *eventStream) (float64, error) {
	passes := func() (*metricsSnapshot, float64, error) {
		m, err := scrape(ctx, j.client, j.srv.base)
		if err != nil {
			return nil, 0, err
		}
		return m, m.Counters["serve.sched.passes"], nil
	}
	if _, err := j.ackOnePerShard(ctx, es); err != nil {
		return 0, err
	}
	_, p0, err := passes()
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, p, err := passes()
		if err != nil {
			return 0, err
		}
		if p > p0 {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("rebuild scheduler made no pass in 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Past the pass start, its rebuilds have pinned the event sequence
	// they train at; an ack racing that would sometimes ride this pass.
	time.Sleep(freshnessMargin)
	preAck, err := j.rankingETags(ctx)
	if err != nil {
		return 0, err
	}
	ackAt, err := j.ackOnePerShard(ctx, es)
	if err != nil {
		return 0, err
	}
	atAck, pAck, err := passes()
	if err != nil {
		return 0, err
	}

	type seen struct {
		etag string
		at   time.Time
	}
	history := make([][]seen, len(j.shards))
	lastPass, passAt := pAck, []float64{}
	var end *metricsSnapshot
	deadline = time.Now().Add(120 * time.Second)
	for {
		// Passes are read before the ETags: once the second pass after
		// the ack has started, the first has published, and the ETags
		// read next include its result.
		m, p, err := passes()
		if err != nil {
			return 0, err
		}
		if p > lastPass {
			passAt = append(passAt, time.Since(ackAt).Seconds())
			lastPass = p
		}
		etags, err := j.rankingETags(ctx)
		if err != nil {
			return 0, err
		}
		for i, etag := range etags {
			h := history[i]
			if len(h) == 0 || h[len(h)-1].etag != etag {
				history[i] = append(h, seen{etag, time.Now()})
			}
		}
		if p >= pAck+2 {
			end = m
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no two rebuild passes within 120s of the last ack")
		}
		// Coarse enough to leave the rebuilds the CPU, fine next to a
		// multi-second pass.
		time.Sleep(50 * time.Millisecond)
	}
	fresh := 0.0
	j.freshETags = make([]string, len(j.shards))
	line := fmt.Sprintf("freshness: passes started at %.2f s after the ack; ETag changes per shard:", passAt)
	for i, sh := range j.shards {
		h := history[i]
		final := h[len(h)-1]
		j.freshETags[i] = final.etag
		fresh = math.Max(fresh, final.at.Sub(ackAt).Seconds())
		line += " ["
		for _, s := range h {
			line += fmt.Sprintf(" %.2f", s.at.Sub(ackAt).Seconds())
		}
		line += " ]"
		if final.etag == preAck[i] {
			j.o.fail("freshness: %s serves ETag %s, the one it served before the ack", sh.region, final.etag)
		}
		rebuilds := "serve.shard." + sh.token + ".rebuilds"
		if end.Counters[rebuilds] <= atAck.Counters[rebuilds] {
			j.o.fail("freshness: %s did not rebuild after the ack", sh.region)
		}
	}
	if d := end.Counters["serve.sched.failures"] + sumMatching(end.Counters, "serve.shard.", ".rebuild_failures") -
		atAck.Counters["serve.sched.failures"] - sumMatching(atAck.Counters, "serve.shard.", ".rebuild_failures"); d != 0 {
		j.o.fail("freshness: %v rebuild failures after the ack", d)
	}
	if live := sumMatching(end.Gauges, "serve.shard.", ".live_events"); int(live) != len(j.acked) {
		j.o.fail("freshness: live_events is %v, acknowledged %d distinct events", live, len(j.acked))
	}
	j.o.steps = append(j.o.steps, line)
	return fresh, nil
}

// rankingETags returns the ETag each shard serves for its default
// model's ranking, in shard order.
func (j *journey) rankingETags(ctx context.Context) ([]string, error) {
	etags := make([]string, len(j.shards))
	for i, sh := range j.shards {
		etag, err := j.rankingETag(ctx, sh.region)
		if err != nil {
			return nil, err
		}
		etags[i] = etag
	}
	return etags, nil
}

// ackOnePerShard posts one new failure event per shard as one NDJSON
// batch and returns when it was acknowledged.
func (j *journey) ackOnePerShard(ctx context.Context, es *eventStream) (time.Time, error) {
	var evs []event
	for _, sh := range j.shards {
		ev := es.newEvent()
		p := sh.failPipes[j.rng.Intn(len(sh.failPipes))]
		ev = event{ID: ev.ID, Region: sh.region, PipeID: p.ID, Year: sh.net.ObservedTo, Day: 1 + j.rng.Intn(365),
			Mode: failureModes[j.rng.Intn(len(failureModes))]}
		es.sent[len(es.sent)-1] = ev
		j.byID[ev.ID] = ev
		evs = append(evs, ev)
	}
	post := eventPost(evs)
	res := result{req: &post, due: time.Now()}
	send(ctx, j.client, j.srv.base, &res)
	check(&res)
	j.o.count(1, boolInt(!res.ok()))
	if !res.ok() {
		return time.Time{}, fmt.Errorf("event batch: %v", res.err)
	}
	j.recordAcks([]result{res})
	return res.done, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (j *journey) rankingETag(ctx context.Context, region string) (string, error) {
	u := fmt.Sprintf("%s/api/models/%s/ranking?top=10&region=%s", j.srv.base, servedModel, url.QueryEscape(region))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := j.client.Do(req)
	if err != nil {
		return "", err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("ranking %s: status %d", region, resp.StatusCode)
	}
	return resp.Header.Get("ETag"), nil
}

// ingestLayers reads the writer's own counters over the event ladder.
func (j *journey) ingestLayers(before, after *metricsSnapshot) {
	d := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	for _, k := range []string{"accepted", "duplicates", "backpressure", "failed"} {
		j.o.layer["serve.events."+k] = d("serve.events." + k)
	}
}

// walLayers reads the always-sync writer's event-log counters, from its
// boot: the group-commit ratio and fsync latency under -wal-sync=always.
func (j *journey) walLayers(m *metricsSnapshot) {
	appends := sumMatching(m.Counters, "serve.wal", ".appends")
	fsyncs := sumMatching(m.Counters, "serve.wal", ".fsyncs")
	j.o.layer["wal.appends"], j.o.layer["wal.fsyncs"] = appends, fsyncs
	j.o.layer["wal.appends_per_fsync"] = ratio(appends, fsyncs)
	// fsync latency: the shards' histograms merged.
	var hs []histogram
	for k, h := range m.Histograms {
		if strings.HasPrefix(k, "serve.wal") && strings.HasSuffix(k, ".fsync_seconds") {
			hs = append(hs, h)
		}
	}
	j.o.layer["wal.fsync_p50_ms"] = 1000 * mergeHistograms(hs).quantile(0.5)
}

// recoveries is how many kill-and-restart cycles follow each freshness
// cycle; ingest.recover_s is the median of all of them.
const recoveries = 5

// recover kills the writer with SIGKILL, restarts it over the same
// directories, and measures the time until it is ready and serves the
// ETags published before the kill, recoveries times. Before the
// first kill the writer must still serve the ETags freshness ended on.
func (j *journey) recover(ctx context.Context, args []string, cycle int) ([]float64, error) {
	want, err := j.rankingETags(ctx)
	if err != nil {
		return nil, err
	}
	for i, sh := range j.shards {
		if want[i] != j.freshETags[i] {
			j.o.fail("%s serves ETag %s before the kill, %s when freshness was measured", sh.region, want[i], j.freshETags[i])
		}
	}
	var times []float64
	for k := 0; k < recoveries; k++ {
		killAt := time.Now()
		j.srv.kill()
		j.srv = nil
		if err := j.boot(args, fmt.Sprintf("recovered%d-%d", cycle, k)); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(60 * time.Second)
		for i, sh := range j.shards {
			for {
				etag, err := j.rankingETag(ctx, sh.region)
				if err == nil && etag == want[i] {
					break
				}
				if time.Now().After(deadline) {
					j.o.fail("recovered %s serves ETag %s, published before the kill %s (%v)", sh.region, etag, want[i], err)
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		times = append(times, time.Since(killAt).Seconds())
	}
	j.o.steps = append(j.o.steps, fmt.Sprintf("recovery times (s): %.3f", times))
	return times, nil
}

// checkRecovered checks that every acknowledged event survived the
// restarts exactly once, then stops the writer.
func (j *journey) checkRecovered(ctx context.Context) error {
	srv := j.srv
	m, err := scrape(ctx, j.client, srv.base)
	if err != nil {
		return err
	}
	if live := sumMatching(m.Gauges, "serve.shard.", ".live_events"); int(live) != len(j.acked) {
		j.o.fail("after recovery live_events is %v, acknowledged %d distinct events", live, len(j.acked))
	}
	// Re-send a sample of acknowledged events: all must be duplicates.
	var ids []string
	for id := range j.acked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	j.rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	var sample []event
	for _, id := range ids[:min(20, len(ids))] {
		sample = append(sample, j.acked[id])
	}
	post := eventPost(sample)
	res := result{req: &post, due: time.Now()}
	send(ctx, j.client, srv.base, &res)
	check(&res)
	j.o.count(1, boolInt(!res.ok()))
	if !res.ok() {
		j.o.fail("re-sending acknowledged events: %v", res.err)
	} else {
		var resp eventsResponse
		if err := json.Unmarshal(res.body, &resp); err != nil || resp.Accepted != 0 || resp.Duplicates != len(sample) {
			j.o.fail("re-sent %d acknowledged events: accepted %d, duplicates %d (%v)", len(sample), resp.Accepted, resp.Duplicates, err)
		}
	}
	err = srv.stop()
	j.srv = nil
	if err != nil {
		return fmt.Errorf("stop recovered server: %w", err)
	}
	return nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
