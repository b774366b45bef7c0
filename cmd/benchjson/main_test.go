package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	lines := []string{
		"goos: linux",
		"pkg: repro/internal/core",
		"BenchmarkFitnessEval-8  \t    1933\t    610513 ns/op\t      42 B/op\t       0 allocs/op",
		"BenchmarkMatVec \t    2871\t    410645.5 ns/op",
		"BenchmarkColRead/rows=10k \t     909\t   1324101 ns/op\t 368.81 MB/s\t 3432264 B/op\t     155 allocs/op",
		"PASS",
		"ok  \trepro/internal/core\t3.1s",
	}
	got, err := parse(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3", len(got))
	}
	fe := got[0]
	if fe.Name != "BenchmarkFitnessEval" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", fe.Name)
	}
	if fe.Iterations != 1933 || fe.NsPerOp != 610513 {
		t.Fatalf("bad numbers: %+v", fe)
	}
	if fe.BytesPerOp == nil || *fe.BytesPerOp != 42 || fe.AllocsPerOp == nil || *fe.AllocsPerOp != 0 {
		t.Fatalf("bad alloc fields: %+v", fe)
	}
	mv := got[1]
	if mv.Name != "BenchmarkMatVec" || mv.NsPerOp != 410645.5 {
		t.Fatalf("bad no-alloc line: %+v", mv)
	}
	if mv.BytesPerOp != nil || mv.AllocsPerOp != nil {
		t.Fatalf("alloc fields must be absent when not reported: %+v", mv)
	}
	// b.SetBytes benchmarks insert an MB/s column before B/op; the alloc
	// fields must still be captured (the throughput itself is derived, so
	// it is skipped, not recorded).
	cr := got[2]
	if cr.Name != "BenchmarkColRead/rows=10k" || cr.NsPerOp != 1324101 {
		t.Fatalf("bad MB/s line: %+v", cr)
	}
	if cr.BytesPerOp == nil || *cr.BytesPerOp != 3432264 || cr.AllocsPerOp == nil || *cr.AllocsPerOp != 155 {
		t.Fatalf("alloc fields lost on MB/s line: %+v", cr)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	got, err := parse([]string{"no benchmarks here"})
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("unexpected results: %+v", got)
	}
}

func intp(v int64) *int64 { return &v }

func TestCheckPassesWithinTolerance(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkAUCKernel", NsPerOp: 1000, BytesPerOp: intp(0), AllocsPerOp: intp(0)},
		{Name: "BenchmarkMatVec", NsPerOp: 500},
	}
	fresh := []Result{
		{Name: "BenchmarkAUCKernel", NsPerOp: 1200, BytesPerOp: intp(64), AllocsPerOp: intp(0)},
		{Name: "BenchmarkMatVec", NsPerOp: 400},
		{Name: "BenchmarkBrandNew", NsPerOp: 9e9}, // not in baseline: ignored
	}
	if v := check(fresh, baseline, 0.3); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCheckCatchesSlowdown(t *testing.T) {
	baseline := []Result{{Name: "BenchmarkAUCKernel", NsPerOp: 1000}}
	fresh := []Result{{Name: "BenchmarkAUCKernel", NsPerOp: 1301}}
	v := check(fresh, baseline, 0.3)
	if len(v) != 1 {
		t.Fatalf("want 1 violation, got %v", v)
	}
}

func TestCheckCatchesAllocGrowthWithoutTolerance(t *testing.T) {
	baseline := []Result{{Name: "BenchmarkAUCKernel", NsPerOp: 1000, BytesPerOp: intp(0), AllocsPerOp: intp(0)}}
	// 10% faster but one new alloc: still a regression — allocation
	// counts are exact and get no tolerance.
	fresh := []Result{{Name: "BenchmarkAUCKernel", NsPerOp: 900, BytesPerOp: intp(16), AllocsPerOp: intp(1)}}
	if v := check(fresh, baseline, 0.3); len(v) != 1 {
		t.Fatalf("want 1 violation, got %v", v)
	}
	// Dropping b.ReportAllocs entirely must also fail, not silently pass.
	fresh[0].BytesPerOp, fresh[0].AllocsPerOp = nil, nil
	if v := check(fresh, baseline, 0.3); len(v) != 1 {
		t.Fatalf("want 1 violation for missing alloc fields, got %v", v)
	}
}

func TestCheckCatchesMissingBenchmark(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkAUCKernel", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 10},
	}
	fresh := []Result{{Name: "BenchmarkAUCKernel", NsPerOp: 1000}}
	v := check(fresh, baseline, 0.3)
	if len(v) != 1 {
		t.Fatalf("want 1 violation for missing benchmark, got %v", v)
	}
}

func TestReadBaselineRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(bad); err == nil {
		t.Fatal("garbage baseline accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(empty); err == nil {
		t.Fatal("empty baseline accepted")
	}
	if _, err := readBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestWriteToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	doc := Document{
		Machine:    Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU", GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		Benchmarks: []Result{{Name: "BenchmarkX", Iterations: 10, NsPerOp: 1.5}},
	}
	if err := write(doc, path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Document
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("file is not valid JSON: %v\n%s", err, blob)
	}
	if len(back.Benchmarks) != 1 || back.Benchmarks[0].Name != "BenchmarkX" || back.Benchmarks[0].NsPerOp != 1.5 {
		t.Fatalf("round trip %+v", back)
	}
	if back.Machine != doc.Machine {
		t.Fatalf("machine round trip %+v, want %+v", back.Machine, doc.Machine)
	}
	// No temp droppings next to the output.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

func TestParseMachine(t *testing.T) {
	lines := []string{
		"goos: linux",
		"goarch: amd64",
		"pkg: repro/internal/core",
		"cpu: Intel(R) Xeon(R) Processor",
		"BenchmarkFitnessEval-8  \t    1933\t    610513 ns/op",
		"goos: darwin", // a later package's header does not override the first
		"BenchmarkMatVec \t    2871\t    410645.5 ns/op",
	}
	want := Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 8}
	if got := parseMachine(lines); got != want {
		t.Fatalf("parseMachine = %+v, want %+v", got, want)
	}
	// No -N suffix means the benchmarks ran at GOMAXPROCS 1.
	if got := parseMachine(lines[6:]); got.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed run: GOMAXPROCS %d, want 1", got.GOMAXPROCS)
	}
}

func TestReadBaselineBothLayouts(t *testing.T) {
	dir := t.TempDir()
	bare := filepath.Join(dir, "bare.json")
	if err := os.WriteFile(bare, []byte(`[{"name":"BenchmarkX","iterations":3,"ns_per_op":7}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := readBaseline(bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].NsPerOp != 7 || doc.Machine != (Machine{}) {
		t.Fatalf("bare array read as %+v", doc)
	}
	stamped := filepath.Join(dir, "stamped.json")
	blob := `{"machine":{"goos":"linux","cpu":"Y","gomaxprocs":4},"benchmarks":[{"name":"BenchmarkX","iterations":3,"ns_per_op":7}]}`
	if err := os.WriteFile(stamped, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err = readBaseline(stamped)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Machine{GOOS: "linux", CPU: "Y", GOMAXPROCS: 4}); doc.Machine != want || len(doc.Benchmarks) != 1 {
		t.Fatalf("document read as %+v", doc)
	}
	noBench := filepath.Join(dir, "nobench.json")
	if err := os.WriteFile(noBench, []byte(`{"machine":{"goos":"linux"},"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(noBench); err == nil {
		t.Fatal("document without benchmarks accepted")
	}
}

func TestWarnMachine(t *testing.T) {
	base := Machine{GOOS: "linux", GOARCH: "amd64", CPU: "A", GOMAXPROCS: 8, GoVersion: "go1.24.0"}
	var buf strings.Builder
	warnMachine(&buf, "BENCH_core.json", base, base)
	if buf.Len() != 0 {
		t.Fatalf("same machine warned: %s", buf.String())
	}

	fresh := base
	fresh.CPU, fresh.GOMAXPROCS = "B", 2
	buf.Reset()
	warnMachine(&buf, "BENCH_core.json", fresh, base)
	out := buf.String()
	for _, want := range []string{"WARNING", "differs", `cpu: this run "B", baseline "A"`, `gomaxprocs: this run "2", baseline "8"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("warning lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "goos:") || strings.Contains(out, "go_version:") {
		t.Fatalf("warning names fields that match:\n%s", out)
	}

	buf.Reset()
	warnMachine(&buf, "BENCH_old.json", fresh, Machine{})
	if out := buf.String(); !strings.Contains(out, "WARNING") || !strings.Contains(out, "BENCH_old.json records no machine") {
		t.Fatalf("unstamped baseline did not warn:\n%s", out)
	}
}
