package serve

// parseRequestFast's contract is "strict subset of encoding/json":
// whenever the fast path accepts a plan body it must produce
// bit-identical fields to the stdlib fallback, and everything else —
// malformed input included — must be declined so decodePlanSlow can
// reproduce the stdlib's exact behavior and error text. These tests pin
// both halves, plus the zero-allocation property the cached plan path
// depends on.

import (
	"math"
	"testing"
)

func planFieldsEqual(a, b planFields) bool {
	return string(a.model) == string(b.model) &&
		string(a.region) == string(b.region) &&
		math.Float64bits(a.budgetKM) == math.Float64bits(b.budgetKM) &&
		a.maxPipes == b.maxPipes &&
		math.Float64bits(a.inspPerKM) == math.Float64bits(b.inspPerKM) &&
		math.Float64bits(a.failCost) == math.Float64bits(b.failCost) &&
		math.Float64bits(a.maxSpend) == math.Float64bits(b.maxSpend) &&
		a.hasInsp == b.hasInsp && a.hasFail == b.hasFail && a.hasSpend == b.hasSpend
}

// planReqCorpus mixes well-formed, exotic and malformed bodies; the
// subset property must hold across all of them.
var planReqCorpus = []string{
	`{}`,
	`{"model":"Logistic","budget_km":5}`,
	`{"budget_km":5.0}`,
	`{"budget_km":5}`,
	`{"model":"Logistic","budget_km":2.5,"max_pipes":12,"inspection_per_km":9000,"failure_cost":120000,"max_spend":50000.25}`,
	`  {  "budget_km" :  3 ,
	     "max_pipes" : 4 }  `,
	`{"budget_km":1e3}`,
	`{"budget_km":1.25e-2}`,
	`{"budget_km":-2.5}`,
	`{"budget_km":-0}`,
	`{"budget_km":-0.0}`,
	`{"budget_km":0.1234567890123456789}`,          // >15 digits: slow float path
	`{"budget_km":1.7976931348623157e308}`,         // MaxFloat64
	`{"budget_km":5e-324}`,                         // smallest denormal
	`{"budget_km":1e-30}`,                          // exponent outside ±22
	`{"budget_km":123456789012345678901234567890}`, // huge integer literal
	`{"budget_km":1,"budget_km":2}`,                // duplicate key: last wins
	`{"unknown_number":12.5,"budget_km":3}`,
	`{"unknown_string":"x","budget_km":3}`,
	`{"Model":"Cox","BUDGET_KM":3}`, // encoding/json matches keys case-insensitively
	`{"region":"B","budget_km":3}`,
	`{"region":"B","region":"C","budget_km":3}`,
	`{"region":5}`,
	`{"region":null,"budget_km":3}`,
	`{"top":5,"regions":["A"],"budget_km":1}`, // bulk-only keys: unknown to a plan
	`{"pipe_ids":["P-1","P-2"],"top":"x","budget_km":1}`,
	`{"regions":[1],"budget_km":1}`,
	`{"unknown_list":["x","y"],"budget_km":3}`,
	`{"unknown_list":["x",["y"]],"budget_km":3}`,
	`{"model":""}`,
	`{"max_pipes":0}`,
	`{"max_pipes":-3}`,
	`{"max_spend":0}`,
	`{"budget_km":3} trailing garbage`, // json.Decoder reads one value
	// Fallback-only and malformed bodies: the fast path must decline all.
	`{"model":"a\"b"}`,
	`{"model":"café"}`,
	"{\"model\":\"caf\xc3\xa9\"}",
	`{"model":null}`,
	`{"draining":true,"budget_km":1}`,
	`{"nested":{"x":1},"budget_km":1}`,
	`{"list":[1,2],"budget_km":1}`,
	`{"max_pipes":1.5}`,
	`{"max_pipes":1e2}`,
	`{"max_pipes":9007199254740993}`,
	`{"budget_km":"5"}`,
	`{"model":5}`,
	`{"budget_km":01}`,
	`{"budget_km":.5}`,
	`{"budget_km":5.}`,
	`{"budget_km":5e}`,
	`{"budget_km":+5}`,
	`{bad`,
	`{"a":}`,
	`[1]`,
	`"str"`,
	`42`,
	``,
	`{"budget_km":3`,
	`{"budget_km" 3}`,
	`{"budget_km":3 "max_pipes":1}`,
}

// TestParsePlanFastSubsetOfStdlib is the core property: fast-path accept
// of a plan body implies stdlib accept with bit-identical decoded
// fields.
func TestParsePlanFastSubsetOfStdlib(t *testing.T) {
	for _, body := range planReqCorpus {
		var fast planFields
		ok := parseRequestFast([]byte(body), &fast, nil)
		var slow planFields
		err := decodePlanSlow([]byte(body), &slow)
		if !ok {
			continue // declined: the fallback owns the body either way
		}
		if err != nil {
			t.Errorf("body %q: fast path accepted what encoding/json rejects: %v", body, err)
			continue
		}
		if !planFieldsEqual(fast, slow) {
			t.Errorf("body %q: decoded fields diverge\nfast: %+v\nslow: %+v", body, fast, slow)
		}
	}
}

// TestParsePlanFastCoverage pins which shapes actually take the fast
// path — the zero-alloc guarantee is worthless if common requests
// silently fall back — and which must decline.
func TestParsePlanFastCoverage(t *testing.T) {
	mustFast := []string{
		`{}`,
		`{"model":"Logistic","budget_km":5}`,
		`{"budget_km":2.5,"max_pipes":12}`,
		`{"model":"Logistic","budget_km":4,"max_spend":15000,"inspection_per_km":9000,"failure_cost":120000}`,
		`{"budget_km":1e3}`,
		`{"region":"B","budget_km":3}`,
		`{"top":5,"regions":["A"],"budget_km":1}`,
	}
	for _, body := range mustFast {
		var pf planFields
		if !parseRequestFast([]byte(body), &pf, nil) {
			t.Errorf("body %q fell back to encoding/json", body)
		}
	}
	mustDecline := []string{
		`{"model":"a\"b"}`,
		`{"model":null}`,
		`{"max_pipes":1.5}`,
		`{"budget_km":"5"}`,
		`{"Model":"Cox"}`,
		`{bad`,
		``,
	}
	for _, body := range mustDecline {
		var pf planFields
		if parseRequestFast([]byte(body), &pf, nil) {
			t.Errorf("body %q accepted by the fast path", body)
		}
	}
}

func TestParsePlanFastValues(t *testing.T) {
	var pf planFields
	body := `{"model":"Logistic","budget_km":2.5,"max_pipes":12,"inspection_per_km":9000,"failure_cost":1.2e5,"max_spend":50000.25}`
	if !parseRequestFast([]byte(body), &pf, nil) {
		t.Fatal("fast path declined a plain body")
	}
	if string(pf.model) != "Logistic" || pf.budgetKM != 2.5 || pf.maxPipes != 12 {
		t.Fatalf("decoded %+v", pf)
	}
	if !pf.hasInsp || pf.inspPerKM != 9000 || !pf.hasFail || pf.failCost != 120000 || !pf.hasSpend || pf.maxSpend != 50000.25 {
		t.Fatalf("decoded %+v", pf)
	}
}

// TestParsePlanFastZeroAlloc: the typical request body must decode with
// no heap allocations at all.
func TestParsePlanFastZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate runs without -race: race instrumentation inflates counts")
	}
	body := []byte(`{"model":"Heuristic-Age","budget_km":10,"max_pipes":25,"max_spend":40000}`)
	var pf planFields
	allocs := testing.AllocsPerRun(500, func() {
		pf = planFields{}
		if !parseRequestFast(body, &pf, nil) {
			t.Fatal("fast path declined")
		}
	})
	if allocs != 0 {
		t.Fatalf("fast parse allocated %.1f times per run, want 0", allocs)
	}
}
