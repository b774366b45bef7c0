// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document, so benchmark results can be checked in and
// diffed across commits (see `make bench-json`, BENCH_core.json and
// BENCH_serve.json).
//
// Usage:
//
//	go test -run '^$' -bench . ./... | benchjson > BENCH_core.json
//	go test -run '^$' -bench . ./internal/serve/ | benchjson -o BENCH_serve.json
//
// -o writes to the named file atomically-enough for a build tree (the
// file appears complete or not at all, via a rename), which lets one
// make recipe emit several BENCH_*.json documents without shell
// redirection ordering hazards.
//
// -check flips the tool from recorder to regression gate: instead of
// emitting JSON it compares the fresh run on stdin against a checked-in
// baseline and exits nonzero on regression:
//
//	go test -run '^$' -bench . ./internal/eval/ | benchjson -check BENCH_core.json -tol 0.3
//
// A benchmark regresses when its ns/op exceeds baseline*(1+tol), when
// its allocs/op rises above the baseline count (allocation counts are
// exact, so they get no tolerance), or when a baseline benchmark is
// missing from the fresh run entirely. Benchmarks in the fresh run but
// not the baseline are ignored — new benchmarks land in the baseline via
// `make bench-json`. The gate is a pre-release check (`make
// bench-check`), not part of verify: wall-clock numbers are too
// machine-sensitive for a merge gate, but a 30% slide should never reach
// a release unnoticed.
//
// Every document records the machine the run came from: the goos,
// goarch and cpu header lines go test prints, the GOMAXPROCS the
// benchmarks ran at (the -N suffix of their names, 1 when absent) and the
// Go version of the toolchain running benchjson, which under `go run` in a
// make recipe is the one that ran the benchmarks. -check compares that
// record with the baseline's and prints a loud warning when they differ,
// since ns/op across machines measures the machine as much as the code.
// Baselines written before the record existed (a bare JSON array of
// results) still load; -check then warns that the machine is unknown.
//
// Only benchmark result lines and those header lines are parsed; all
// other output (pass/fail summaries, pkg headers) is ignored. Lines that
// report B/op and allocs/op (benchmarks using b.ReportAllocs) carry those
// fields; others omit them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Machine identifies the host and toolchain a run came from.
type Machine struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

// Document is the JSON layout of a BENCH_*.json file.
type Document struct {
	Machine    Machine  `json:"machine"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// so results are comparable across machines.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the reported B/op; nil when the benchmark does not
	// report allocations.
	BytesPerOp *int64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is the reported allocs/op; nil when not reported.
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkFitnessEval-8   1933   610513 ns/op   42 B/op   0 allocs/op
//	BenchmarkColRead/rows=10k   909   1324101 ns/op   368.81 MB/s   3432264 B/op   155 allocs/op
//
// The MB/s column (benchmarks using b.SetBytes) is skipped, not recorded:
// it is derived from ns/op and the fixed byte size, so ns/op already
// carries the signal.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// procsSuffix splits the -GOMAXPROCS suffix go test appends to a
// benchmark name when parallelism > 1; procs is 1 when there is none.
func procsSuffix(name string) (base string, procs int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// parseMachine reads the machine record from go test -bench output: the
// first goos, goarch and cpu header lines, and the GOMAXPROCS of the
// first benchmark line (0 when there is none). GoVersion is left to the
// caller.
func parseMachine(lines []string) Machine {
	var m Machine
	for _, line := range lines {
		key, val, ok := strings.Cut(line, ": ")
		switch {
		case ok && key == "goos" && m.GOOS == "":
			m.GOOS = strings.TrimSpace(val)
		case ok && key == "goarch" && m.GOARCH == "":
			m.GOARCH = strings.TrimSpace(val)
		case ok && key == "cpu" && m.CPU == "":
			m.CPU = strings.TrimSpace(val)
		case m.GOMAXPROCS == 0:
			if b := benchLine.FindStringSubmatch(line); b != nil {
				_, m.GOMAXPROCS = procsSuffix(b[1])
			}
		}
	}
	return m
}

// differences lists, one line per field, where fresh differs from the
// baseline's record. Fields the baseline left empty are not compared.
func differences(fresh, base Machine) []string {
	var out []string
	diff := func(field, got, want string) {
		if want != "" && got != want {
			out = append(out, fmt.Sprintf("%s: this run %q, baseline %q", field, got, want))
		}
	}
	diff("goos", fresh.GOOS, base.GOOS)
	diff("goarch", fresh.GOARCH, base.GOARCH)
	diff("cpu", fresh.CPU, base.CPU)
	if base.GOMAXPROCS != 0 {
		diff("gomaxprocs", strconv.Itoa(fresh.GOMAXPROCS), strconv.Itoa(base.GOMAXPROCS))
	}
	diff("go_version", fresh.GoVersion, base.GoVersion)
	return out
}

// parse extracts benchmark results from go test -bench output.
func parse(lines []string) ([]Result, error) {
	var out []Result
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, _ := procsSuffix(m[1])
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", line, err)
		}
		r := Result{Name: name, Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			b, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad B/op in %q: %w", line, err)
			}
			a, err := strconv.ParseInt(m[5], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad allocs/op in %q: %w", line, err)
			}
			r.BytesPerOp = &b
			r.AllocsPerOp = &a
		}
		out = append(out, r)
	}
	return out, nil
}

func main() {
	out := flag.String("o", "", "write JSON to this file instead of stdout (written via a temp-file rename)")
	checkPath := flag.String("check", "", "compare the fresh run on stdin against this baseline JSON instead of emitting JSON; exit 1 on regression")
	tol := flag.Float64("tol", 0.30, "with -check, allowed fractional ns/op slowdown over the baseline (allocs/op gets no tolerance)")
	flag.Parse()

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	results, err := parse(lines)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	machine := parseMachine(lines)
	machine.GoVersion = runtime.Version()
	if *checkPath != "" {
		baseline, err := readBaseline(*checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		warnMachine(os.Stderr, *checkPath, machine, baseline.Machine)
		violations := check(results, baseline.Benchmarks, *tol)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", v)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %.0f%% of %s\n",
			len(baseline.Benchmarks), *tol*100, *checkPath)
		return
	}
	if err := write(Document{Machine: machine, Benchmarks: results}, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// warnMachine prints a loud warning to w when the fresh run's machine
// differs from the baseline's, or when the baseline records none.
func warnMachine(w io.Writer, path string, fresh, base Machine) {
	if base == (Machine{}) {
		fmt.Fprintf(w, "benchjson: WARNING: %s records no machine; ns/op limits may not apply to this one (%s/%s, %q, GOMAXPROCS=%d, %s)\n",
			path, fresh.GOOS, fresh.GOARCH, fresh.CPU, fresh.GOMAXPROCS, fresh.GoVersion)
		return
	}
	diffs := differences(fresh, base)
	if len(diffs) == 0 {
		return
	}
	banner := strings.Repeat("!", 72)
	fmt.Fprintln(w, "benchjson:", banner)
	fmt.Fprintf(w, "benchjson: WARNING: this run's machine differs from the one %s was recorded on:\n", path)
	for _, d := range diffs {
		fmt.Fprintln(w, "benchjson: WARNING:   "+d)
	}
	fmt.Fprintln(w, "benchjson: WARNING: ns/op differences below measure the machine as much as the code.")
	fmt.Fprintln(w, "benchjson:", banner)
}

// readBaseline loads a checked-in BENCH_*.json document: a Document, or
// the bare array of results written before machines were recorded (whose
// Machine is then zero).
func readBaseline(path string) (Document, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(blob, &doc.Benchmarks); err != nil {
		doc = Document{}
		if err := json.Unmarshal(blob, &doc); err != nil {
			return Document{}, fmt.Errorf("baseline %s: %w", path, err)
		}
	}
	if len(doc.Benchmarks) == 0 {
		return Document{}, fmt.Errorf("baseline %s: no benchmarks", path)
	}
	return doc, nil
}

// check compares a fresh run against the baseline and returns one
// message per violation. Every baseline benchmark must be present in the
// fresh run — a silently dropped benchmark would otherwise read as a
// pass — with ns/op at most baseline*(1+tol) and allocs/op (when the
// baseline records it) not above the baseline count.
func check(fresh, baseline []Result, tol float64) []string {
	byName := make(map[string]Result, len(fresh))
	for _, r := range fresh {
		byName[r.Name] = r
	}
	var violations []string
	for _, base := range baseline {
		got, ok := byName[base.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: in baseline but missing from this run", base.Name))
			continue
		}
		if limit := base.NsPerOp * (1 + tol); got.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%% (limit %.0f)",
				base.Name, got.NsPerOp, base.NsPerOp, tol*100, limit))
		}
		if base.AllocsPerOp != nil {
			switch {
			case got.AllocsPerOp == nil:
				violations = append(violations, fmt.Sprintf(
					"%s: baseline records %d allocs/op but this run reports none (b.ReportAllocs dropped?)",
					base.Name, *base.AllocsPerOp))
			case *got.AllocsPerOp > *base.AllocsPerOp:
				violations = append(violations, fmt.Sprintf(
					"%s: %d allocs/op exceeds baseline %d (no tolerance on allocation counts)",
					base.Name, *got.AllocsPerOp, *base.AllocsPerOp))
			}
		}
	}
	return violations
}

// write emits the document as indented JSON to path ("" = stdout). File
// output goes through a temp file + rename so a failed run never leaves
// a truncated BENCH_*.json behind.
func write(doc Document, path string) error {
	if path == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
