// Command perfbench is the repository's benchmark: it runs one workload
// of the whole pipe-failure service — data generation, retrain, a read
// ladder and an ingest ladder against a real pipeserve, freshness, and
// crash recovery — checks the outputs, and prints the result as one JSON
// line (the last line of standard output).
//
//	perfbench -bin DIR -work DIR --workload paper --seed 1 --seconds 20 --trace 0
//
// run.sh builds the binaries and supplies -bin and -work. With --trace 0
// the result holds the end-to-end metrics; with --trace 1 the per-layer
// metrics of a traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// endToEnd lists the end-to-end metrics and their units, in report
// order; BENCHMARK.json names the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"train_peak_rss_mb", "MiB"},
	{"test_auc", "1"},
	{"read_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
}

func main() {
	os.Exit(run())
}

func run() int {
	childPath := flag.String("child-train", "", "internal: retrain on this dataset and print a report")
	model := flag.String("model", "", "internal: model for -child-train")
	name := flag.String("workload", "", "workload name: paper or metro")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measuring time of the run, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding pipegen and pipeserve")
	work := flag.String("work", ".bench_build", "directory for the run's files")
	baselinePath := flag.String("baseline", "perfbench/baseline.json", "recorded machine stamp and seed values")
	flag.Parse()

	if *childPath != "" {
		if err := childTrain(*childPath, *model, *seed, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no recorded baseline:", err)
	}

	// The generator keeps a step's responses until the step ends; a larger
	// GC target keeps collection from taking the CPUs it shares with the
	// server in bursts.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rc := runConfig{
		wl: wl, set: defaultSettings(), seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, self: self, base: base,
		dir: filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", wl.name, *seed, os.Getpid())),
	}
	defer os.RemoveAll(rc.dir)
	o, err := runWorkload(ctx, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	report(os.Stdout, rc, o)
	if rc.trace {
		tracePath := filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err == nil {
			t := &tracer{spans: o.spans}
			if err := t.write(tracePath); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			}
		}
	}
	if base != nil {
		if d := stampDiff(o.stamp, base.Stamp); len(d) > 0 {
			fmt.Fprintf(os.Stderr, "\nperfbench: WARNING: THIS MACHINE DIFFERS FROM THE RECORDED BASELINE'S: %s\n"+
				"perfbench: WARNING: compare figures only with runs made on this machine.\n\n", strings.Join(d, "; "))
		}
	}

	metrics := map[string]metric{}
	if rc.trace {
		for k, v := range o.layer {
			metrics[k] = metric{v, layerUnit(k)}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metric{o.e2e[m.name], m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_eps"):
		return "events/s"
	case strings.HasSuffix(name, "_rps"):
		return "req/s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_fsync"),
		strings.HasSuffix(name, "_over_early"), name == "error_rate":
		return "1"
	}
	return "count"
}

// report prints the human-readable result: the machine stamp, every
// end-to-end metric with unit and sample count, the per-layer metrics of
// a traced run, and any failed check.
func report(w *os.File, rc runConfig, o *outcome) {
	st, _ := json.Marshal(o.stamp)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\nmachine %s\n", rc.wl.name, rc.seed, rc.seconds, rc.trace, st)
	if !rc.trace {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-20s %14.4f %-9s n=%d\n", m.name, o.e2e[m.name], m.unit, o.samples[m.name])
		}
	} else {
		var names []string
		for k := range o.layer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, o.layer[k], layerUnit(k))
		}
	}
	for _, s := range o.steps {
		fmt.Fprintln(w, "  "+s)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}
