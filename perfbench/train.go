package main

// Retrain measurements. Each retrain runs in a child process (this
// binary with -child-train) that does nothing else, so the child's peak
// RSS belongs to the retrain alone. The untraced child goes through the
// public pipefail API (OpenData → NewPipelineData → Train → Rank); the
// traced child makes the same calls one layer down, with a span around
// each, and must produce the same ranking.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/obs"
)

// trainReport is what a child prints on standard output.
type trainReport struct {
	TrainS      float64 `json:"train_s"` // wall time, OpenData to Rank
	StealS      float64 `json:"steal_s"` // host steal over the same interval, all CPUs
	AUC         float64 `json:"auc"`
	NaiveAUC    float64 `json:"naive_auc"`
	RankingHash string  `json:"ranking_hash"`

	// Traced children only.
	Spans     []span           `json:"spans,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	FeatureMB float64          `json:"feature_alloc_mb,omitempty"`
	FitMB     float64          `json:"fit_alloc_mb,omitempty"`
	Rows      int              `json:"rows,omitempty"`
	MatrixMB  float64          `json:"matrix_mb,omitempty"`
	PeakRSSMB float64          `json:"-"` // set by the parent, from rusage
	CPUS      float64          `json:"-"` // user plus system CPU seconds, from rusage
}

// childTrain is the child process's main: train model on the dataset at
// path and print a trainReport.
func childTrain(path, model string, seed int64, traced bool) error {
	var rep *trainReport
	var err error
	if traced {
		rep, err = trainTraced(path, model, seed)
	} else {
		rep, err = trainPublic(path, model, seed)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func trainPublic(path, model string, seed int64) (*trainReport, error) {
	start, steal0 := time.Now(), stealSeconds()
	data, err := pipefail.OpenData(path)
	if err != nil {
		return nil, err
	}
	p, err := pipefail.NewPipelineData(data, pipefail.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	m, err := p.Train(model)
	if err != nil {
		return nil, err
	}
	r, err := p.Rank(m)
	if err != nil {
		return nil, err
	}
	rep := &trainReport{TrainS: time.Since(start).Seconds(), StealS: stealSeconds() - steal0, AUC: r.AUC()}
	rep.NaiveAUC = naiveAUC(r.Scores, r.Failed)
	rep.RankingHash = rankingHash(r.PipeIDs, r.Scores)
	return rep, nil
}

// trainTraced repeats NewPipelineData, Train and Rank call by call with
// a span around each layer's entry point, plus the allocation deltas and
// the obs counters the layers keep.
func trainTraced(path, model string, seed int64) (*trainReport, error) {
	tr := newTracer("train")
	rep := &trainReport{}
	start, steal0 := time.Now(), stealSeconds()
	root, endRoot := tr.begin("train.run", 0)

	end := tr.start("colfmt.open", root)
	data, err := colfmt.Open(path)
	end()
	if err != nil {
		return nil, err
	}
	split := dataset.Split{TrainFrom: data.ObservedFrom(), TrainTo: data.ObservedTo() - 1, TestYear: data.ObservedTo()}

	alloc0 := totalAlloc()
	end = tr.start("feature.builder", root)
	b, err := feature.NewBuilderFromSource(data.Source(), feature.Options{Standardize: true})
	end()
	if err != nil {
		return nil, err
	}
	end = tr.start("feature.train_set", root)
	train, err := b.TrainSet(split)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.start("feature.test_set", root)
	test, err := b.TestSet(split)
	end()
	if err != nil {
		return nil, err
	}
	rep.FeatureMB = mib(totalAlloc() - alloc0)
	rep.Rows = train.Len() + test.Len()
	rep.MatrixMB = mib(uint64(rep.Rows*b.Dim()) * 8)

	m, err := experiments.NewRegistry(seed, 0).New(model)
	if err != nil {
		return nil, err
	}
	before := obs.Default().Snapshot().Counters
	alloc0 = totalAlloc()
	end = tr.start("core.fit", root)
	err = core.FitModel(context.Background(), m, train)
	end()
	if err != nil {
		return nil, err
	}
	rep.FitMB = mib(totalAlloc() - alloc0)
	after := obs.Default().Snapshot().Counters
	rep.Counters = make(map[string]int64)
	for _, k := range []string{"core.es.fitness_evals", "core.es.generations", "parallel.run.items", "parallel.run.calls"} {
		rep.Counters[k] = after[k] - before[k]
	}

	end = tr.start("eval.score", root)
	scores, err := m.Scores(test)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.start("eval.auc", root)
	rep.AUC = eval.AUC(scores, test.Label)
	end()
	endRoot()
	rep.TrainS, rep.StealS = time.Since(start).Seconds(), stealSeconds()-steal0

	ids := make([]string, len(test.PipeIdx))
	for row, idx := range test.PipeIdx {
		ids[row] = data.PipeID(idx)
	}
	rep.NaiveAUC = naiveAUC(scores, test.Label)
	rep.RankingHash = rankingHash(ids, scores)
	rep.Spans = tr.snapshot()
	return rep, nil
}

// busyS is the retrain's wall time less the host's steal (see lessSteal).
func (r *trainReport) busyS() float64 { return lessSteal(r.TrainS, r.StealS) }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// rankingHash fingerprints a ranking: pipe IDs and exact score bits in
// test-row order.
func rankingHash(ids []string, scores []float64) string {
	h := sha256.New()
	var buf [8]byte
	for i, id := range ids {
		h.Write([]byte(id))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(scores[i]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// naiveAUC is an independent AUC: the share of (failed, intact) pairs the
// scores order correctly, ties counting one half, from a sort and integer
// pair counts.
func naiveAUC(scores []float64, failed []bool) float64 {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	var twice, neg, pos int64
	for i := 0; i < len(idx); {
		j := i
		var p, n int64
		for ; j < len(idx) && scores[idx[j]] == scores[idx[i]]; j++ {
			if failed[idx[j]] {
				p++
			} else {
				n++
			}
		}
		// Positives in this tie group beat every negative below it and
		// tie with the negatives inside it.
		twice += p*2*neg + p*n
		neg += n
		pos += p
		i = j
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	return float64(twice) / float64(2*pos*neg)
}

// runTrainChild runs one child retrain and returns its report with the
// child's peak RSS.
func runTrainChild(self, path, model string, seed int64, traced bool) (*trainReport, error) {
	args := []string{"-child-train", path, "-model", model, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	dieWithParent(cmd)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("train child %s on %s: %v: %s", model, path, err, errb.String())
	}
	var rep trainReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("train child output: %v", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		rep.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return &rep, nil
}
