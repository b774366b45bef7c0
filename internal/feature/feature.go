// Package feature turns the domain model into numeric design matrices.
//
// It implements the data-mining pipeline stage of the reproduced paper:
// heterogeneous pipe attributes (categorical material, coating and soil
// factors; continuous age, diameter, length, traffic distance) and failure
// history are encoded into fixed-length vectors, with categorical levels
// one-hot encoded and continuous features log-transformed and standardized
// on the training window only.
//
// Training uses pipe-year instances: one row per pipe per training year,
// labelled with whether the pipe failed in that year, with history features
// computed strictly from years before the instance year (no leakage).
// Testing uses one row per pipe as of the held-out year.
package feature

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Groups selects which feature groups enter the design matrix. The zero
// value selects nothing; use AllGroups for the full model. The ablation
// experiment switches groups off one at a time.
type Groups struct {
	// Material enables the material and coating one-hots.
	Material bool
	// Age enables pipe age and its log transform.
	Age bool
	// Geometry enables diameter and length.
	Geometry bool
	// Soil enables the four soil factor one-hots.
	Soil bool
	// Traffic enables the distance-to-intersection feature.
	Traffic bool
	// History enables prior-failure-count features.
	History bool
}

// AllGroups returns every group enabled.
func AllGroups() Groups {
	return Groups{Material: true, Age: true, Geometry: true, Soil: true, Traffic: true, History: true}
}

// Without returns a copy of g with the named group disabled. Valid names:
// material, age, geometry, soil, traffic, history.
func (g Groups) Without(name string) (Groups, error) {
	switch name {
	case "material":
		g.Material = false
	case "age":
		g.Age = false
	case "geometry":
		g.Geometry = false
	case "soil":
		g.Soil = false
	case "traffic":
		g.Traffic = false
	case "history":
		g.History = false
	default:
		return g, fmt.Errorf("feature: unknown group %q", name)
	}
	return g, nil
}

// Any reports whether at least one group is enabled.
func (g Groups) Any() bool {
	return g.Material || g.Age || g.Geometry || g.Soil || g.Traffic || g.History
}

// Options configures a Builder.
type Options struct {
	// Groups selects the feature groups (default: AllGroups via NewBuilder).
	Groups Groups
	// Standardize centres and scales continuous features using training
	// statistics. One-hot columns are left as 0/1.
	Standardize bool
}

// Set is a design matrix plus the metadata models need alongside it.
// Rows align across all fields.
//
// Sets built by a Builder are dense: X's rows are views into one
// contiguous row-major backing array exposed by Flat, so scoring kernels
// can stream the whole matrix without per-row pointer chasing. Sets
// assembled by hand (or row-subset views such as the CV fold splitter's)
// may populate X alone; Flat then reports no backing and callers fall
// back to the row views.
type Set struct {
	// Names are the expanded column names of X.
	Names []string
	// X holds one feature vector per instance. When the set is dense,
	// each row is a view into the flat backing array — mutating a row
	// mutates the backing and vice versa.
	X [][]float64
	// Label is the instance label: pipe failed in the instance year.
	Label []bool
	// Age is the pipe age at the instance year (survival baselines use it
	// directly, independent of whether the age group is enabled in X).
	Age []float64
	// LengthM is the pipe length (for length-weighted evaluation).
	LengthM []float64
	// PipeIdx is the index of the pipe in Network.Pipes().
	PipeIdx []int
	// Year is the instance year.
	Year []int

	// flat is the contiguous row-major backing (len == len(X)*stride)
	// when the set is dense, nil otherwise.
	flat   []float64
	stride int
}

// NewDense returns a Set with rows x dim dense storage: a single
// contiguous backing array with X's rows as capacity-clamped views into
// it, and the metadata slices preallocated to rows. dim must be positive;
// rows may be zero.
func NewDense(names []string, rows, dim int) *Set {
	if dim <= 0 {
		panic(fmt.Sprintf("feature: NewDense dim %d must be positive", dim))
	}
	if rows < 0 {
		panic(fmt.Sprintf("feature: NewDense rows %d must be non-negative", rows))
	}
	flat := make([]float64, rows*dim)
	x := make([][]float64, rows)
	for i := range x {
		x[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Set{
		Names:   names,
		X:       x,
		Label:   make([]bool, rows),
		Age:     make([]float64, rows),
		LengthM: make([]float64, rows),
		PipeIdx: make([]int, rows),
		Year:    make([]int, rows),
		flat:    flat,
		stride:  dim,
	}
}

// Flat returns the contiguous row-major backing array and the row stride
// (== Dim for dense sets), or (nil, 0) when the set was assembled from
// shared row views. Row i occupies flat[i*stride : (i+1)*stride]; the
// storage is shared with X, not a copy.
func (s *Set) Flat() ([]float64, int) {
	return s.flat, s.stride
}

// Row returns row i. Dense sets slice it straight from the flat backing,
// which spares random-access readers the extra load of X[i]'s slice
// header; view sets return X[i].
func (s *Set) Row(i int) []float64 {
	if s.flat != nil {
		return s.flat[i*s.stride : (i+1)*s.stride : (i+1)*s.stride]
	}
	return s.X[i]
}

// Len returns the number of instances.
func (s *Set) Len() int { return len(s.X) }

// Dim returns the feature dimensionality (0 for an empty set).
func (s *Set) Dim() int {
	if len(s.X) == 0 {
		return 0
	}
	return len(s.X[0])
}

// Positives returns the number of positive labels.
func (s *Set) Positives() int {
	c := 0
	for _, v := range s.Label {
		if v {
			c++
		}
	}
	return c
}

// Matrix copies X into a dense linalg.Matrix (for the Newton-step
// fitters). Dense sets copy their flat backing in one memcpy; view sets
// fall back to a row-by-row copy.
func (s *Set) Matrix() *linalg.Matrix {
	m := linalg.NewMatrix(max(1, s.Len()), max(1, s.Dim()))
	if s.flat != nil && s.stride == m.Cols {
		copy(m.Data, s.flat)
		return m
	}
	for i, row := range s.X {
		copy(m.Row(i), row)
	}
	return m
}

// Builder encodes a registry's pipes into Sets. A Builder is bound to one
// Source (a materialized network or a columnar dataset); categorical
// vocabularies are collected from the full registry (attributes are known
// for all pipes up front — only labels are temporal), while numeric scaling
// statistics are fitted on the training set alone.
type Builder struct {
	src  Source
	opts Options

	materials []dataset.Material
	coatings  []dataset.Coating
	soilCorr  []string
	soilExp   []string
	soilGeo   []string
	soilMap   []string

	names []string

	// Standardization state, fitted by TrainSet.
	fitted bool
	mean   []float64
	scale  []float64
	// numeric lists, in column order, the columns that participate in
	// standardization.
	numeric []int
	// ageCol and histCol are the first of the two age and the two history
	// columns, the only ones that vary by year; -1 when the group is off.
	ageCol, histCol int
}

// NewBuilder returns a Builder over the network. Zero-valued Options get
// the full feature set with standardization enabled.
func NewBuilder(net *dataset.Network, opts Options) (*Builder, error) {
	if net == nil {
		return nil, fmt.Errorf("feature: nil network")
	}
	return NewBuilderFromSource(NetworkSource(net), opts)
}

// NewBuilderFromSource returns a Builder over any Source, e.g. a columnar
// dataset that never materializes []Pipe. Zero-valued Options get the full
// feature set with standardization enabled.
func NewBuilderFromSource(src Source, opts Options) (*Builder, error) {
	if src == nil {
		return nil, fmt.Errorf("feature: nil source")
	}
	if !opts.Groups.Any() {
		opts.Groups = AllGroups()
		opts.Standardize = true
	}
	b := &Builder{src: src, opts: opts}
	b.collectVocabularies()
	b.buildNames()
	if len(b.names) == 0 {
		return nil, fmt.Errorf("feature: configuration yields no features")
	}
	return b, nil
}

// collectVocabularies scans the registry for the categorical levels present,
// in sorted order for stable column layouts.
func (b *Builder) collectVocabularies() {
	mats := map[dataset.Material]bool{}
	coats := map[dataset.Coating]bool{}
	sc, se, sg, sm := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	var p dataset.Pipe
	for i, n := 0, b.src.NumPipes(); i < n; i++ {
		b.src.PipeAt(i, &p)
		mats[p.Material] = true
		coats[p.Coating] = true
		sc[p.SoilCorrosivity] = true
		se[p.SoilExpansivity] = true
		sg[p.SoilGeology] = true
		sm[p.SoilMap] = true
	}
	for m := range mats {
		b.materials = append(b.materials, m)
	}
	sort.Slice(b.materials, func(i, j int) bool { return b.materials[i] < b.materials[j] })
	for c := range coats {
		b.coatings = append(b.coatings, c)
	}
	sort.Slice(b.coatings, func(i, j int) bool { return b.coatings[i] < b.coatings[j] })
	b.soilCorr = sortedKeys(sc)
	b.soilExp = sortedKeys(se)
	b.soilGeo = sortedKeys(sg)
	b.soilMap = sortedKeys(sm)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (b *Builder) buildNames() {
	g := b.opts.Groups
	var names []string
	var numeric []int
	addNum := func(n string) { numeric = append(numeric, len(names)); names = append(names, n) }
	addCat := func(n string) { names = append(names, n) }
	b.ageCol, b.histCol = -1, -1

	if g.Material {
		for _, m := range b.materials {
			addCat("material=" + string(m))
		}
		for _, c := range b.coatings {
			addCat("coating=" + string(c))
		}
	}
	if g.Age {
		b.ageCol = len(names)
		addNum("age")
		addNum("log_age")
	}
	if g.Geometry {
		addNum("log_diameter")
		addNum("log_length")
	}
	if g.Soil {
		for _, v := range b.soilCorr {
			addCat("soil_corr=" + v)
		}
		for _, v := range b.soilExp {
			addCat("soil_exp=" + v)
		}
		for _, v := range b.soilGeo {
			addCat("soil_geo=" + v)
		}
		for _, v := range b.soilMap {
			addCat("soil_map=" + v)
		}
	}
	if g.Traffic {
		addNum("log_dist_traffic")
	}
	if g.History {
		b.histCol = len(names)
		addNum("prior_failures")
		addNum("had_failure")
	}
	b.names = names
	b.numeric = numeric
}

// Names returns the expanded feature names in column order.
func (b *Builder) Names() []string { return append([]string(nil), b.names...) }

// Dim returns the feature dimensionality.
func (b *Builder) Dim() int { return len(b.names) }

// staticInto writes pipe p's year-independent columns into x, a
// caller-owned slice of length Dim. The age and history columns are left
// untouched; the fill writes them per year.
func (b *Builder) staticInto(x []float64, p *dataset.Pipe) {
	g := b.opts.Groups
	j := 0
	put := func(v float64) { x[j] = v; j++ }
	if g.Material {
		for _, m := range b.materials {
			put(boolTo01(p.Material == m))
		}
		for _, c := range b.coatings {
			put(boolTo01(p.Coating == c))
		}
	}
	if g.Age {
		j += 2
	}
	if g.Geometry {
		put(math.Log(p.DiameterMM))
		put(math.Log(p.LengthM))
	}
	if g.Soil {
		for _, v := range b.soilCorr {
			put(boolTo01(p.SoilCorrosivity == v))
		}
		for _, v := range b.soilExp {
			put(boolTo01(p.SoilExpansivity == v))
		}
		for _, v := range b.soilGeo {
			put(boolTo01(p.SoilGeology == v))
		}
		for _, v := range b.soilMap {
			put(boolTo01(p.SoilMap == v))
		}
	}
	if g.Traffic {
		put(math.Log1p(p.DistToTrafficM))
	}
}

func boolTo01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// TrainSet builds the pipe-year training set for the split and fits the
// standardization statistics. History features for an instance in year y
// use failures in [split.TrainFrom, y-1] only. The returned set is dense
// (one contiguous backing array; see Set.Flat).
func (b *Builder) TrainSet(split dataset.Split) (*Set, error) {
	s := b.fill(split.TrainFrom, split.TrainTo, split.TrainFrom, func(y int) int { return y - 1 })
	if s == nil {
		return nil, fmt.Errorf("feature: empty training set for split %+v", split)
	}
	b.fitScaler(s)
	b.apply(s)
	return s, nil
}

// TestSet builds the one-row-per-pipe test set for the split, using the
// standardization fitted by TrainSet. History features use the full
// training window. The returned set is dense (see Set.Flat).
func (b *Builder) TestSet(split dataset.Split) (*Set, error) {
	if !b.fitted {
		return nil, fmt.Errorf("feature: TestSet called before TrainSet")
	}
	s := b.fill(split.TestYear, split.TestYear, split.TrainFrom, func(int) int { return split.TrainTo })
	if s == nil {
		return nil, fmt.Errorf("feature: empty test set for split %+v", split)
	}
	b.apply(s)
	return s, nil
}

// fill builds the unscaled set of one row per year in [from, to] per pipe
// laid by that year, or nil when there are no such rows. Rows are
// year-major: all of year y's rows precede year y+1's, and within a year
// pipes keep registry order. History for year y counts failures in
// [histFrom, histTo(y)].
//
// The registry is walked pipe-major in one contiguous chunk per pool
// worker, so each pipe's attributes are read and its static columns
// encoded once rather than once per year. A first pass counts, per chunk,
// the pipes laid by each year; the counts give every chunk its own write
// cursor within each year's block, so every row lands at its year-major
// position whatever the worker count. Each cell is computed by the same
// expression as in a year-major loop, so the set is bit-identical to one.
func (b *Builder) fill(from, to, histFrom int, histTo func(year int) int) *Set {
	n, dim, years := b.src.NumPipes(), b.Dim(), to-from+1
	pool := parallel.New(0)
	// cursor[c*years+k] first counts chunk c's pipes laid by year from+k,
	// then becomes chunk c's next row in that year.
	cursor := make([]int, pool.Workers()*years)
	pool.Run(n, func(c, lo, hi int) {
		cnt := cursor[c*years : (c+1)*years]
		for i := lo; i < hi; i++ {
			if k := max(b.src.LaidYearAt(i), from) - from; k < years {
				cnt[k]++
			}
		}
		for k := 1; k < years; k++ {
			cnt[k] += cnt[k-1]
		}
	})
	rows := 0
	for k := 0; k < years; k++ {
		for c := 0; c < pool.Workers(); c++ {
			cnt := cursor[c*years+k]
			cursor[c*years+k] = rows
			rows += cnt
		}
	}
	if rows == 0 {
		return nil
	}

	s := NewDense(b.Names(), rows, dim)
	flat := s.flat
	static := make([]float64, pool.Workers()*dim)
	pool.Run(n, func(c, lo, hi int) {
		cur := cursor[c*years : (c+1)*years]
		st := static[c*dim : (c+1)*dim]
		var p dataset.Pipe
		for i := lo; i < hi; i++ {
			laid := b.src.LaidYearAt(i)
			if laid > to {
				continue
			}
			b.src.PipeAt(i, &p)
			b.staticInto(st, &p)
			for y := max(laid, from); y <= to; y++ {
				r := cur[y-from]
				cur[y-from]++
				x := flat[r*dim : (r+1)*dim]
				copy(x, st)
				age := p.AgeAt(y)
				if b.ageCol >= 0 {
					x[b.ageCol] = age
					x[b.ageCol+1] = math.Log1p(age)
				}
				if b.histCol >= 0 {
					nf := 0
					if hTo := histTo(y); hTo >= histFrom {
						nf = b.src.FailureCountAt(i, histFrom, hTo)
					}
					x[b.histCol] = float64(nf)
					x[b.histCol+1] = boolTo01(nf > 0)
				}
				s.Label[r] = b.src.FailedInYearAt(i, y)
				s.Age[r] = age
				s.LengthM[r] = p.LengthM
				s.PipeIdx[r] = i
				s.Year[r] = y
			}
		}
	})
	return s
}

// fitScaler fits the per-column mean and standard deviation of the
// numeric columns. Both passes sweep the matrix row by row with one
// accumulator per column, so each column's sum is added in row order,
// exactly as a column-at-a-time loop would; the passes stay serial to
// keep that order.
func (b *Builder) fitScaler(s *Set) {
	d := b.Dim()
	b.mean = make([]float64, d)
	b.scale = make([]float64, d)
	for j := 0; j < d; j++ {
		b.scale[j] = 1
	}
	if !b.opts.Standardize {
		b.fitted = true
		return
	}
	n := float64(s.Len())
	flat := s.flat
	acc := make([]float64, len(b.numeric))
	for r := 0; r < len(flat); r += d {
		row := flat[r : r+d]
		for k, j := range b.numeric {
			acc[k] += row[j]
		}
	}
	for k, j := range b.numeric {
		b.mean[j] = acc[k] / n
		acc[k] = 0
	}
	for r := 0; r < len(flat); r += d {
		row := flat[r : r+d]
		for k, j := range b.numeric {
			dv := row[j] - b.mean[j]
			acc[k] += dv * dv
		}
	}
	for k, j := range b.numeric {
		if sd := math.Sqrt(acc[k] / n); sd > 1e-12 {
			b.scale[j] = sd
		}
	}
	b.fitted = true
}

// apply standardizes the numeric columns in place, fanned out by row.
func (b *Builder) apply(s *Set) {
	if !b.opts.Standardize {
		return
	}
	d := b.Dim()
	parallel.New(0).Run(s.Len(), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := s.flat[r*d : (r+1)*d]
			for _, j := range b.numeric {
				row[j] = (row[j] - b.mean[j]) / b.scale[j]
			}
		}
	})
}
