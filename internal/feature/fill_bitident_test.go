package feature_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/colfmt"
	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/synthetic"
)

// TestFillMatchesYearMajorOracle holds the pipe-major parallel fill to the
// year-major reference encoder: the flat backing, every metadata column
// and the fitted scaler must be byte-equal, for every worker count, group
// subset, scaling choice, split shape and Source.
func TestFillMatchesYearMajorOracle(t *testing.T) {
	cfg, err := synthetic.Preset("A", 31)
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = cfg.Scaled(0.04); err != nil {
		t.Fatal(err)
	}
	// Lay pipes through the whole observation window, so rows per year
	// grow and, under the gap split, some pipes enter no set at all.
	cfg.LaidTo = cfg.ObservedTo
	net, _, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := colfmt.FromNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := colfmt.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	col, err := colfmt.Read(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]feature.Source{"network": feature.NetworkSource(net), "colfmt": col}

	paper, err := dataset.PaperSplit(net)
	if err != nil {
		t.Fatal(err)
	}
	// A test year two past the training window, with a window that starts
	// late, so history and test rows take their own bounds.
	gap, err := dataset.NewSplit(net, net.ObservedFrom+2, net.ObservedTo-3, net.ObservedTo-1)
	if err != nil {
		t.Fatal(err)
	}
	splits := map[string]dataset.Split{"paper": paper, "gap": gap}

	all := feature.AllGroups()
	noAge, _ := all.Without("age")
	noHistory, _ := all.Without("history")
	options := map[string]feature.Options{
		"default":     {},
		"raw":         {Groups: all},
		"no-age":      {Groups: noAge, Standardize: true},
		"no-history":  {Groups: noHistory, Standardize: true},
		"age-only":    {Groups: feature.Groups{Age: true}, Standardize: true},
		"history-raw": {Groups: feature.Groups{History: true}},
		"soil-only":   {Groups: feature.Groups{Soil: true}, Standardize: true},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for srcName, src := range sources {
			for splitName, split := range splits {
				for optName, opts := range options {
					name := fmt.Sprintf("procs=%d/%s/%s/%s", procs, srcName, splitName, optName)
					checkFillAgainstOracle(t, name, src, split, opts)
				}
			}
		}
	}
}

func checkFillAgainstOracle(t *testing.T, name string, src feature.Source, split dataset.Split, opts feature.Options) {
	t.Helper()
	b, err := feature.NewBuilderFromSource(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := feature.NewBuilderFromSource(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantTrain, wantTest, wantMean, wantScale := feature.OracleSets(ref, split)
	train, err := b.TrainSet(split)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	test, err := b.TestSet(split)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Pipes laid inside the window make the per-year row counts differ,
	// which is what the fill's per-chunk cursors must get right.
	if perYear := rowsPerYear(wantTrain.Year); len(perYear) < 2 || perYear[0] == perYear[len(perYear)-1] {
		t.Fatalf("%s: fixture rows per training year %v do not grow", name, perYear)
	}
	mean, scale := feature.FittedScaler(b)
	sameFloats(t, name+" mean", mean, wantMean)
	sameFloats(t, name+" scale", scale, wantScale)
	for _, c := range []struct {
		phase     string
		got, want *feature.Set
	}{{"train", train, wantTrain}, {"test", test, wantTest}} {
		gf, gs := c.got.Flat()
		wf, ws := c.want.Flat()
		if gs != ws {
			t.Fatalf("%s %s: stride %d, want %d", name, c.phase, gs, ws)
		}
		sameFloats(t, name+" "+c.phase+" flat", gf, wf)
		sameFloats(t, name+" "+c.phase+" Age", c.got.Age, c.want.Age)
		sameFloats(t, name+" "+c.phase+" LengthM", c.got.LengthM, c.want.LengthM)
		if len(c.got.Label) != len(c.want.Label) || len(c.got.PipeIdx) != len(c.want.PipeIdx) || len(c.got.Year) != len(c.want.Year) {
			t.Fatalf("%s %s: metadata lengths differ from the oracle's", name, c.phase)
		}
		for i := range c.want.Label {
			if c.got.Label[i] != c.want.Label[i] || c.got.PipeIdx[i] != c.want.PipeIdx[i] || c.got.Year[i] != c.want.Year[i] {
				t.Fatalf("%s %s: row %d metadata (label %v pipe %d year %d), want (%v %d %d)", name, c.phase, i,
					c.got.Label[i], c.got.PipeIdx[i], c.got.Year[i], c.want.Label[i], c.want.PipeIdx[i], c.want.Year[i])
			}
		}
	}
}

// sameFloats requires bitwise equality, so -0 and NaN payloads count too.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// rowsPerYear counts the rows of each year of a year-major set, in order.
func rowsPerYear(years []int) []int {
	var out []int
	for i, y := range years {
		if i == 0 || y != years[i-1] {
			out = append(out, 0)
		}
		out[len(out)-1]++
	}
	return out
}
