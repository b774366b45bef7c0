package tune

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/feature"
	"repro/internal/stats"
)

// noisySet builds a two-class dataset where only feature 0 is informative,
// so heavy regularization (which shrinks the informative weight less than
// it suppresses noise) separates candidates measurably.
func noisySet(seed int64, n, dim int) *feature.Set {
	rng := stats.NewRNG(seed)
	s := &feature.Set{}
	for j := 0; j < dim; j++ {
		s.Names = append(s.Names, "f")
	}
	for i := 0; i < n; i++ {
		pos := rng.Bernoulli(0.25)
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Norm()
		}
		if pos {
			row[0] += 1.5
		}
		s.X = append(s.X, row)
		s.Label = append(s.Label, pos)
		s.Age = append(s.Age, 10)
		s.LengthM = append(s.LengthM, 100)
		s.PipeIdx = append(s.PipeIdx, i)
		s.Year = append(s.Year, 2000)
	}
	return s
}

func svmCandidates() []Candidate {
	return []Candidate{
		{Label: "epochs=1", Make: func() core.Model {
			return core.NewRankSVM(core.RankSVMConfig{Seed: 1, Epochs: 1, PairsPerEpoch: 50})
		}},
		{Label: "epochs=20", Make: func() core.Model {
			return core.NewRankSVM(core.RankSVMConfig{Seed: 1, Epochs: 20})
		}},
	}
}

func TestSelectByCVRanksCandidates(t *testing.T) {
	train := noisySet(1, 1200, 8)
	results, err := SelectByCV(train, svmCandidates(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.FoldAUCs) != 4 {
			t.Fatalf("%s folds = %d", r.Label, len(r.FoldAUCs))
		}
		if r.MeanAUC < 0.5 || r.MeanAUC > 1 {
			t.Fatalf("%s mean AUC %v", r.Label, r.MeanAUC)
		}
	}
	// Sorted best-first.
	if results[0].MeanAUC < results[1].MeanAUC {
		t.Fatal("results not sorted")
	}
	// The well-trained candidate should win against the starved one.
	if results[0].Label != "epochs=20" {
		t.Fatalf("winner %s, want epochs=20 (AUCs %v vs %v)",
			results[0].Label, results[0].MeanAUC, results[1].MeanAUC)
	}
}

func TestBestReturnsWinner(t *testing.T) {
	train := noisySet(2, 800, 6)
	best, results, err := Best(train, svmCandidates(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Label != results[0].Label {
		t.Fatalf("best %s vs results[0] %s", best.Label, results[0].Label)
	}
	if best.Make == nil {
		t.Fatal("winner has no factory")
	}
	m := best.Make()
	if err := m.Fit(train); err != nil {
		t.Fatalf("winner cannot be retrained: %v", err)
	}
}

func TestSelectByCVDeterminism(t *testing.T) {
	train := noisySet(3, 600, 5)
	r1, err := SelectByCV(train, svmCandidates(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SelectByCV(train, svmCandidates(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].MeanAUC != r2[i].MeanAUC {
			t.Fatal("CV not deterministic")
		}
	}
}

func TestSelectByCVErrors(t *testing.T) {
	if _, err := SelectByCV(nil, svmCandidates(), 3, 1); err == nil {
		t.Fatal("nil train must error")
	}
	train := noisySet(4, 100, 3)
	if _, err := SelectByCV(train, nil, 3, 1); err == nil {
		t.Fatal("no candidates must error")
	}
	if _, err := SelectByCV(train, svmCandidates(), 1, 1); err == nil {
		t.Fatal("k=1 must error")
	}
	// A candidate whose fit fails propagates the error.
	bad := []Candidate{{Label: "bad", Make: func() core.Model {
		return core.NewRankBoost(core.RankBoostConfig{})
	}}}
	empty := &feature.Set{}
	if _, err := SelectByCV(empty, bad, 2, 1); err == nil {
		t.Fatal("empty set must error")
	}
}

// TestFoldViewsFitLikeDenseCopies checks that a CV fold, a row-subset
// view with no flat backing, trains RankSVM to the same bits as a dense
// copy of the same rows, which reads from the flat backing.
func TestFoldViewsFitLikeDenseCopies(t *testing.T) {
	train := noisySet(5, 900, 6)
	folds, err := eval.StratifiedKFold(train.Label, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for hi := range folds {
		trIdx, err := eval.TrainIndices(folds, hi)
		if err != nil {
			t.Fatal(err)
		}
		view := subset(train, trIdx)
		if flat, _ := view.Flat(); flat != nil {
			t.Fatal("fold subset unexpectedly has a flat backing")
		}
		dense := feature.NewDense(view.Names, view.Len(), view.Dim())
		for i, row := range view.X {
			copy(dense.X[i], row)
		}
		copy(dense.Label, view.Label)
		cfg := core.RankSVMConfig{Seed: 3, Epochs: 3, PairsPerEpoch: 5000}
		a, b := core.NewRankSVM(cfg), core.NewRankSVM(cfg)
		if err := a.Fit(view); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(dense); err != nil {
			t.Fatal(err)
		}
		for j := range a.W {
			if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
				t.Fatalf("fold %d: weight %d is %v on the view, %v on the dense copy", hi, j, a.W[j], b.W[j])
			}
		}
	}
}
