package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// oracleRankSVM is the one-pair-at-a-time SGD loop: draw a pair, form its
// difference from the row views, step. The blocked fit must reproduce its
// weights bit for bit.
func oracleRankSVM(cfg RankSVMConfig, train *feature.Set) []float64 {
	pos, neg := splitByLabel(train)
	cfg.fillDefaults(len(pos))
	rng := stats.NewRNG(cfg.Seed)
	w := make([]float64, train.Dim())
	diff := make([]float64, train.Dim())
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for k := 0; k < cfg.PairsPerEpoch; k++ {
			t++
			xi := train.X[pos[rng.Intn(len(pos))]]
			xj := train.X[neg[rng.Intn(len(neg))]]
			for d := range diff {
				diff[d] = xi[d] - xj[d]
			}
			lr := cfg.LearningRate / math.Sqrt(float64(t))
			linalg.Scale(1-lr*cfg.Lambda, w)
			if linalg.Dot(w, diff) < 1 {
				linalg.Axpy(lr, diff, w)
			}
		}
	}
	return w
}

func sameWeights(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: weight %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRankSVMMatchesPerPairOracle pins the blocked pair gather to the
// per-pair loop on flat sets and on view sets (no flat backing, like
// tune's CV folds), for epochs shorter than, equal to and one pair longer
// than a block, for several epochs and for several worker counts.
func TestRankSVMMatchesPerPairOracle(t *testing.T) {
	dense := gaussianSet(41, 900, 0.2, 1.5, 6)
	sets := map[string]*feature.Set{"flat": dense, "view": viewCopy(dense)}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for name, set := range sets {
			for _, pairs := range []int{0, 1000, rankSVMBlock, rankSVMBlock + 1} {
				for _, epochs := range []int{1, 3} {
					cfg := RankSVMConfig{Seed: 5, Epochs: epochs, PairsPerEpoch: pairs}
					m := NewRankSVM(cfg)
					if err := m.Fit(set); err != nil {
						t.Fatal(err)
					}
					sameWeights(t, fmt.Sprintf("procs=%d %s pairs=%d epochs=%d", procs, name, pairs, epochs),
						m.W, oracleRankSVM(cfg, set))
				}
			}
		}
	}
}

// TestRankSVMCancelledRerunMatchesFit cancels a fit at an epoch boundary
// after whole blocks have run, then checks a fresh uncancelled run still
// equals Fit and the per-pair oracle.
func TestRankSVMCancelledRerunMatchesFit(t *testing.T) {
	train := gaussianSet(43, 600, 0.2, 1.5, 5)
	cfg := RankSVMConfig{Seed: 8, Epochs: 4, PairsPerEpoch: rankSVMBlock + 1}
	ref := NewRankSVM(cfg)
	if err := ref.Fit(train); err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "Fit vs oracle", ref.W, oracleRankSVM(cfg, train))

	for _, after := range []int64{1, 2, 3} {
		cancelled := NewRankSVM(cfg)
		err := cancelled.FitContext(&cancelAfterErrCalls{Context: context.Background(), after: after}, train)
		if err == nil {
			t.Fatalf("cancel at epoch %d: fit returned nil error", after)
		}
		if want := fmt.Sprintf("cancelled at epoch %d", after); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %q", err, want)
		}
		if cancelled.W != nil {
			t.Fatalf("cancel at epoch %d left weights behind", after)
		}
		rerun := NewRankSVM(cfg)
		if err := rerun.FitContext(context.Background(), train); err != nil {
			t.Fatal(err)
		}
		sameWeights(t, fmt.Sprintf("rerun after cancel at epoch %d", after), rerun.W, ref.W)
	}
}
