package main

// Per-layer measurements of the traced run. They run after the journey,
// with the journey's own inputs, and call each layer's public functions
// directly: a traced retrain, the run's requests through the server's
// handler in process, the run's event payloads through a bare WAL, the
// run's overlay through Network.ExtendLive, and a replay of a copy of
// the run's event log.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/wal"
)

func (j *journey) traced(ctx context.Context) error {
	if j.tr == nil {
		return nil
	}
	for _, f := range []func(context.Context) error{j.tracedRetrain, j.handlerTimes, j.loadgenFloor, j.bareWAL, j.extendAndReplay} {
		if err := f(ctx); err != nil {
			return err
		}
	}
	j.o.layer["error_rate"] = ratio(float64(j.o.failed), float64(j.o.attempted))
	for layer, s := range selfTimes(j.tr.snapshot()) {
		j.o.layer["trace."+layer+".self_s"] = s
	}
	return nil
}

func (j *journey) tracedRetrain(context.Context) error {
	offset := time.Since(j.tr.epoch).Nanoseconds()
	rep, err := runTrainChild(j.rc.self, j.trainPath, j.rc.wl.trainModel, j.rc.seed, true)
	j.o.count(1, 0)
	if err != nil {
		return err
	}
	j.tr.adopt(rep.Spans, offset, 0)
	if rep.AUC != j.o.e2e["test_auc"] || rep.RankingHash != j.publicHash {
		j.o.fail("traced retrain: AUC %v and ranking hash %s, the public API's %v and %s", rep.AUC, rep.RankingHash, j.o.e2e["test_auc"], j.publicHash)
	}
	dur := map[string]float64{}
	for _, s := range rep.Spans {
		dur[s.Name] += float64(s.End-s.Start) / 1e9
	}
	L := j.o.layer
	L["colfmt.open_s"] = dur["colfmt.open"]
	L["feature.build_s"] = dur["feature.builder"] + dur["feature.train_set"] + dur["feature.test_set"]
	L["feature.alloc_mb"] = rep.FeatureMB
	L["feature.rows"] = float64(rep.Rows)
	L["feature.matrix_mb"] = rep.MatrixMB
	L["core.fit_s"] = dur["core.fit"]
	L["core.fit_alloc_mb"] = rep.FitMB
	L["core.es.fitness_evals"] = float64(rep.Counters["core.es.fitness_evals"])
	L["core.es.generations"] = float64(rep.Counters["core.es.generations"])
	L["core.es.eval_us"] = 1e6 * ratio(dur["core.fit"], float64(rep.Counters["core.es.fitness_evals"]))
	L["eval.score_s"] = dur["eval.score"]
	L["eval.auc_s"] = dur["eval.auc"]
	L["parallel.run.items"] = float64(rep.Counters["parallel.run.items"])
	L["trace.overhead.train_s"] = rep.busyS() - j.untracedTrainS
	return nil
}

// handlerTimes sends the nominal read step and every event post of the
// run through Server.Handler().ServeHTTP in this process, one at a time,
// and times each call: the server's own cost per route, without the
// network or the generator.
func (j *journey) handlerTimes(context.Context) error {
	var nets []*pipefail.Network
	for _, sh := range j.shards {
		nets = append(nets, sh.net)
	}
	s, err := serve.NewMulti(nets, log.New(io.Discard, "", 0), pipefail.WithSeed(j.rc.seed))
	if err != nil {
		return err
	}
	walDir := filepath.Join(j.rc.dir, "inproc-wal")
	if err := s.SetEventLog(serve.EventLogConfig{Dir: walDir, Sync: wal.SyncAlways}); err != nil {
		return err
	}
	state := filepath.Join(j.rc.dir, "inproc-state")
	if err := copyDir(j.readState, state); err != nil {
		return err
	}
	if err := s.SetStateDir(state); err != nil {
		return err
	}
	defer s.BeginShutdown()
	h := s.Handler()
	times := map[route][]float64{}
	var eventUS []float64
	call := func(rq *request) error {
		var body io.Reader
		if rq.body != nil {
			body = bytes.NewReader(rq.body)
		}
		req := httptest.NewRequest(rq.method, rq.path, body)
		if rq.ndjson {
			req.Header.Set("Content-Type", "application/x-ndjson")
		} else if rq.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		us := float64(time.Since(start)) / float64(time.Microsecond)
		if w.Code != http.StatusOK {
			return fmt.Errorf("in-process %s %s: status %d: %.200s", rq.method, rq.path, w.Code, w.Body.Bytes())
		}
		times[rq.route] = append(times[rq.route], us)
		if rq.route == routeEvents {
			eventUS = append(eventUS, us)
		}
		return nil
	}
	end := j.tr.start("serve.inprocess_replay", 0)
	defer end()
	for i := range j.nominalReads {
		j.o.count(1, 0)
		if err := call(&j.nominalReads[i]); err != nil {
			j.o.count(0, 1)
			j.o.fail("%v", err)
			return nil
		}
	}
	for i := range j.allPosts {
		j.o.count(1, 0)
		if err := call(&j.allPosts[i]); err != nil {
			j.o.count(0, 1)
			j.o.fail("%v", err)
			return nil
		}
	}
	for _, rt := range []route{routeRanking, routePlan, routeBulkRank, routePipe, routeEvents} {
		sum := summarize(times[rt])
		j.o.layer["serve."+string(rt)+".handler_p50_us"] = sum.p50
		j.o.layer["serve."+string(rt)+".handler_p99_us"] = sum.tail
	}
	j.o.layer["loadgen.transport_ms"] = j.o.e2e["read_p50_ms"] - summarize(times[routeRanking]).p50/1000
	if n := len(eventUS); n >= 10 {
		early, late := mean(eventUS[:n/10]), mean(eventUS[n-n/10:])
		j.o.layer["serve.events.early_us"], j.o.layer["serve.events.late_us"] = early, late
		j.o.layer["serve.events.late_over_early"] = ratio(late, early)
	}
	return nil
}

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return ratio(t, float64(len(v)))
}

// loadgenFloor runs the nominal read step's schedule against an
// in-process handler that does nothing: the generator's own latency
// floor (timer wake-up, loopback, client), which is not the server's.
func (j *journey) loadgenFloor(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}"))
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	client := newClient(j.rc.set.conns)
	res := runOpenLoop(ctx, client, "http://"+ln.Addr().String(), j.nominalReads, j.nominalRead.rate, j.rc.set.conns, nil, 0)
	client.CloseIdleConnections()
	_ = srv.Close()
	<-done
	var lat []float64
	for _, r := range res {
		if r.ok() {
			lat = append(lat, ms(r.latency))
		}
	}
	sum := summarize(lat)
	j.o.layer["loadgen.floor_p50_ms"], j.o.layer["loadgen.floor_p99_ms"] = sum.p50, sum.tail
	return nil
}

// bareWAL appends the run's event payloads to a fresh WAL under the
// same fsync policy from as many goroutines as the generator has
// connections, each append followed by WaitDurable: the ceiling the
// events handler could reach.
func (j *journey) bareWAL(context.Context) error {
	w, err := wal.Open(filepath.Join(j.rc.dir, "bare-wal"), wal.Options{Sync: wal.SyncAlways, MetricsName: "perfbench.bare_wal"},
		func([]byte) error { return nil })
	if err != nil {
		return err
	}
	defer w.Close()
	var payloads [][]byte
	for _, p := range j.allPosts {
		payloads = append(payloads, p.body)
	}
	lat := make([]float64, len(payloads))
	errs := make([]error, j.rc.set.conns)
	var wg sync.WaitGroup
	var next atomic.Int64
	end := j.tr.start("wal.bare_append", 0)
	for g := 0; g < j.rc.set.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(payloads) {
					return
				}
				start := time.Now()
				off, err := w.Append(payloads[i])
				if err == nil {
					err = w.WaitDurable(off)
				}
				if err != nil {
					errs[g] = err
					return
				}
				lat[i] = ms(time.Since(start))
			}
		}(g)
	}
	wg.Wait()
	end()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("bare WAL append: %w", err)
		}
	}
	j.o.layer["wal.bare_append_ms"] = median(lat)
	return nil
}

// extendAndReplay times Network.ExtendLive over each shard's acknowledged
// overlay, and wal.Open replaying a copy of the run's event log.
func (j *journey) extendAndReplay(context.Context) error {
	fails := map[string][]dataset.Failure{}
	renews := map[string][]pipefail.Renewal{}
	for _, ev := range j.acked {
		if ev.Type == "renewal" {
			renews[ev.Region] = append(renews[ev.Region], pipefail.Renewal{PipeID: ev.PipeID, Year: ev.Year})
			continue
		}
		fails[ev.Region] = append(fails[ev.Region], dataset.Failure{PipeID: ev.PipeID, Segment: ev.Segment,
			Year: ev.Year, Day: ev.Day, Mode: dataset.FailureMode(ev.Mode)})
	}
	total := 0.0
	for _, sh := range j.shards {
		end := j.tr.start("dataset.extend_live", 0)
		start := time.Now()
		sh.net.ExtendLive(fails[sh.region], renews[sh.region])
		total += time.Since(start).Seconds()
		end()
	}
	j.o.layer["dataset.extend_s"] = total

	cp := filepath.Join(j.rc.dir, "wal-copy")
	if err := copyDir(j.walDir, cp); err != nil {
		return err
	}
	dirs := []string{cp}
	if len(j.shards) > 1 {
		dirs = dirs[:0]
		for _, sh := range j.shards {
			dirs = append(dirs, filepath.Join(cp, sh.token))
		}
	}
	replayed, replayS := 0, 0.0
	for _, d := range dirs {
		if _, err := os.Stat(d); err != nil {
			return fmt.Errorf("event log copy: %w", err)
		}
		end := j.tr.start("wal.replay", 0)
		start := time.Now()
		w, err := wal.Open(d, wal.Options{Sync: wal.SyncAlways, MetricsName: "perfbench.replay"}, func([]byte) error {
			replayed++
			return nil
		})
		replayS += time.Since(start).Seconds()
		end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", d, err)
		}
		_ = w.Close()
	}
	j.o.layer["wal.replay_s"] = replayS
	j.o.layer["wal.replayed"] = float64(replayed)
	return nil
}
