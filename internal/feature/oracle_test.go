package feature

import (
	"math"

	"repro/internal/dataset"
)

// The reference fill below is the Builder's original year-major encoder:
// one rowInto call per pipe-year, a column-at-a-time scaler and a serial
// apply. The pipe-major fill must reproduce its matrices, metadata and
// scaler statistics byte for byte (see fill_bitident_test.go).

// oracleRowInto encodes pipe i (attributes in p) as of year into x, with
// history drawn from failures in [historyFrom, historyTo].
func oracleRowInto(b *Builder, x []float64, i int, p *dataset.Pipe, year, historyFrom, historyTo int) {
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
		age := p.AgeAt(year)
		put(age)
		put(math.Log1p(age))
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
	if g.History {
		n := 0
		if historyTo >= historyFrom {
			n = b.src.FailureCountAt(i, historyFrom, historyTo)
		}
		put(float64(n))
		put(boolTo01(n > 0))
	}
}

// oracleFill walks years outer, pipes inner, appending one row per pipe
// laid by the year. The train fill uses history [TrainFrom, y-1]; the test
// fill uses the whole training window.
func oracleFill(b *Builder, split dataset.Split, test bool) *Set {
	from, to := split.TrainFrom, split.TrainTo
	if test {
		from, to = split.TestYear, split.TestYear
	}
	n := b.src.NumPipes()
	rows := 0
	for y := from; y <= to; y++ {
		for i := 0; i < n; i++ {
			if b.src.LaidYearAt(i) <= y {
				rows++
			}
		}
	}
	s := NewDense(b.Names(), rows, b.Dim())
	r := 0
	var p dataset.Pipe
	for y := from; y <= to; y++ {
		for i := 0; i < n; i++ {
			if b.src.LaidYearAt(i) > y {
				continue
			}
			b.src.PipeAt(i, &p)
			histTo := y - 1
			if test {
				histTo = split.TrainTo
			}
			oracleRowInto(b, s.X[r], i, &p, y, split.TrainFrom, histTo)
			s.Label[r] = b.src.FailedInYearAt(i, y)
			s.Age[r] = p.AgeAt(y)
			s.LengthM[r] = p.LengthM
			s.PipeIdx[r] = i
			s.Year[r] = y
			r++
		}
	}
	return s
}

// oracleScaler fits mean and scale one column at a time, each a strided
// sweep down the rows.
func oracleScaler(b *Builder, s *Set) (mean, scale []float64) {
	d := b.Dim()
	mean = make([]float64, d)
	scale = make([]float64, d)
	for j := range scale {
		scale[j] = 1
	}
	if !b.opts.Standardize {
		return mean, scale
	}
	isNumeric := make([]bool, d)
	for _, j := range b.numeric {
		isNumeric[j] = true
	}
	n := float64(s.Len())
	for j := 0; j < d; j++ {
		if !isNumeric[j] {
			continue
		}
		sum := 0.0
		for _, row := range s.X {
			sum += row[j]
		}
		m := sum / n
		ss := 0.0
		for _, row := range s.X {
			dv := row[j] - m
			ss += dv * dv
		}
		sd := math.Sqrt(ss / n)
		mean[j] = m
		if sd > 1e-12 {
			scale[j] = sd
		}
	}
	return mean, scale
}

func oracleApply(b *Builder, s *Set, mean, scale []float64) {
	if !b.opts.Standardize {
		return
	}
	for _, row := range s.X {
		for _, j := range b.numeric {
			row[j] = (row[j] - mean[j]) / scale[j]
		}
	}
}

// OracleSets builds the train and test sets and the scaler statistics
// with the year-major reference encoder, using b's vocabularies and
// options but none of its fitted state.
func OracleSets(b *Builder, split dataset.Split) (train, test *Set, mean, scale []float64) {
	train = oracleFill(b, split, false)
	mean, scale = oracleScaler(b, train)
	oracleApply(b, train, mean, scale)
	test = oracleFill(b, split, true)
	oracleApply(b, test, mean, scale)
	return train, test, mean, scale
}

// FittedScaler returns the mean and scale TrainSet fitted.
func FittedScaler(b *Builder) (mean, scale []float64) { return b.mean, b.scale }
