package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/feature"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// RankSVMConfig tunes the pairwise hinge-loss ranker.
type RankSVMConfig struct {
	// Seed drives pair sampling.
	Seed int64
	// Epochs is the number of passes, each drawing PairsPerEpoch pairs
	// (default 30).
	Epochs int
	// PairsPerEpoch is the number of (positive, negative) pairs sampled
	// per epoch (default: 4x the positive count, at least 1000).
	PairsPerEpoch int
	// Lambda is the L2 regularization strength (default 1e-4).
	Lambda float64
	// LearningRate is the initial SGD step (default 0.1, decayed 1/sqrt(t)).
	LearningRate float64
}

func (c *RankSVMConfig) fillDefaults(numPos int) {
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.PairsPerEpoch <= 0 {
		c.PairsPerEpoch = 4 * numPos
		if c.PairsPerEpoch < 1000 {
			c.PairsPerEpoch = 1000
		}
	}
	if c.Lambda <= 0 {
		c.Lambda = 1e-4
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
}

// RankSVM learns a linear scoring function by minimizing the pairwise
// hinge loss Σ max(0, 1 − w·(x⁺ − x⁻)) + λ‖w‖² over sampled
// positive/negative pairs — the convex surrogate of the AUC objective that
// the paper compares its direct optimizer against.
type RankSVM struct {
	cfg RankSVMConfig
	// W is the learned weight vector.
	W []float64
}

// NewRankSVM returns an unfitted RankSVM.
func NewRankSVM(cfg RankSVMConfig) *RankSVM {
	return &RankSVM{cfg: cfg}
}

// Name implements Model.
func (m *RankSVM) Name() string { return "RankSVM" }

// Fit implements Model.
func (m *RankSVM) Fit(train *feature.Set) error {
	return m.FitContext(context.Background(), train)
}

// rankSVMBlock is the number of pairs whose difference vectors are
// gathered together before the serial SGD steps consume them. A block
// never spans an epoch, so cancellation stays at epoch boundaries.
const rankSVMBlock = 4096

// FitContext implements ContextFitter: Fit with a cancellation check at
// every epoch boundary. The checks never touch the RNG, so uncancelled
// runs match Fit bit for bit.
//
// Pairs are processed in blocks: the block's indices are drawn on the
// caller's goroutine in the per-pair RNG order (positive, then negative),
// the difference vectors are gathered into a block buffer across the
// pool (each slot written by one worker), and the SGD steps then run
// serially in pair order. The random row reads dominate the fit on large
// sets; gathering them in parallel, ahead of the dependent update chain,
// overlaps their cache misses, while every floating-point operation on w
// happens in the same order as a one-pair-at-a-time loop.
func (m *RankSVM) FitContext(ctx context.Context, train *feature.Set) error {
	if err := validateFitInputs(train); err != nil {
		return fmt.Errorf("%s: %w", m.Name(), err)
	}
	pos, neg := splitByLabel(train)
	cfg := m.cfg
	cfg.fillDefaults(len(pos))
	rng := stats.NewRNG(cfg.Seed)

	dim := train.Dim()
	block := min(rankSVMBlock, cfg.PairsPerEpoch)
	pi, ni := make([]int, block), make([]int, block)
	diffs := make([]float64, block*dim)
	pool := parallel.New(0)
	gather := func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			xi, xj := train.Row(pi[k]), train.Row(ni[k])
			diff := diffs[k*dim : (k+1)*dim]
			for d := range diff {
				diff[d] = xi[d] - xj[d]
			}
		}
	}

	w := make([]float64, dim)
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: cancelled at epoch %d: %w", m.Name(), epoch, err)
		}
		for done := 0; done < cfg.PairsPerEpoch; done += block {
			n := min(block, cfg.PairsPerEpoch-done)
			for k := 0; k < n; k++ {
				pi[k] = pos[rng.Intn(len(pos))]
				ni[k] = neg[rng.Intn(len(neg))]
			}
			pool.Run(n, gather)
			for k := 0; k < n; k++ {
				t++
				diff := diffs[k*dim : (k+1)*dim]
				lr := cfg.LearningRate / math.Sqrt(float64(t))
				// L2 shrinkage.
				linalg.Scale(1-lr*cfg.Lambda, w)
				if linalg.Dot(w, diff) < 1 {
					linalg.Axpy(lr, diff, w)
				}
			}
		}
	}
	m.W = w
	return nil
}

// Scores implements Model.
func (m *RankSVM) Scores(test *feature.Set) ([]float64, error) {
	if m.W == nil {
		return nil, fmt.Errorf("%s: Scores before Fit", m.Name())
	}
	if test.Dim() != len(m.W) {
		return nil, fmt.Errorf("%s: test dim %d != model dim %d", m.Name(), test.Dim(), len(m.W))
	}
	return scoreAll(test, m.W), nil
}
