package feature

import (
	"repro/internal/dataset"
)

// Source abstracts where pipe attributes and failure history come from, so
// the Builder can encode design matrices without caring whether the data
// sits in a materialized *dataset.Network or in the columnar arrays of a
// binary dataset file (internal/colfmt). Pipes are addressed by registry
// row index; implementations must present a stable order across calls —
// the Builder's vocabulary collection, row counting and fill passes all
// read rows 0..NumPipes()-1 and rely on seeing identical values each
// time. The counting and fill passes split the rows into chunks read by
// concurrent goroutines, so every method must be safe for concurrent use
// (both implementations only read immutable state). Because every
// implementation feeds the same Builder arithmetic, two Sources describing
// the same data produce bit-identical Sets (see
// TestColumnarBuilderBitIdentical in internal/colfmt).
type Source interface {
	// NumPipes returns the registry size.
	NumPipes() int
	// LaidYearAt returns pipe i's commissioning year without materializing
	// the full pipe (the row-counting passes need only this field).
	LaidYearAt(i int) int
	// PipeAt fills p with pipe i's attributes. Implementations may share
	// string backing between calls (the Builder only reads).
	PipeAt(i int, p *dataset.Pipe)
	// FailureCountAt returns how many failures pipe i had in calendar
	// years [from, to] (inclusive); [from, to] with from > to is empty.
	FailureCountAt(i, from, to int) int
	// FailedInYearAt reports whether pipe i failed at least once in year.
	FailedInYearAt(i, year int) bool
}

// networkSource adapts a materialized *dataset.Network to Source.
type networkSource struct {
	net *dataset.Network
}

// NetworkSource wraps a network as a feature Source. The network must not
// be mutated while the source is in use.
func NetworkSource(net *dataset.Network) Source {
	return networkSource{net: net}
}

func (s networkSource) NumPipes() int        { return s.net.NumPipes() }
func (s networkSource) LaidYearAt(i int) int { return s.net.Pipes()[i].LaidYear }

func (s networkSource) PipeAt(i int, p *dataset.Pipe) {
	*p = s.net.Pipes()[i]
}

func (s networkSource) FailureCountAt(i, from, to int) int {
	return s.net.FailureCount(s.net.Pipes()[i].ID, from, to)
}

func (s networkSource) FailedInYearAt(i, year int) bool {
	return s.net.FailedInYear(s.net.Pipes()[i].ID, year)
}
