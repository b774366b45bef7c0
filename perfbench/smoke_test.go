package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// binDir holds pipegen, pipeserve and this benchmark, built once for the
// smoke tests.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	code := func() int {
		for _, b := range [][]string{
			{"-C", "..", "build", "-o", dir + "/", "./cmd/pipegen", "./cmd/pipeserve"},
			{"build", "-o", filepath.Join(dir, "perfbench"), "."},
		} {
			cmd := exec.Command("go", b...)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return 1
			}
		}
		return m.Run()
	}()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesPerfbench(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, perfbench %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in perfbench", w.Name)
		}
	}
	for _, m := range bf.PerLayer {
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, perfbench %q", m.Name, m.Unit, u)
		}
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload end to end on tiny inputs, traced, and
// requires every check to pass and every metric BENCHMARK.json names to
// be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start servers and child processes")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			wl, set := smokeConfig(w, defaultSettings())
			rc := runConfig{wl: wl, set: set, seed: 3, seconds: 2, trace: true,
				bin: binDir, self: filepath.Join(binDir, "perfbench"), dir: t.TempDir()}
			o, err := runWorkload(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				t.Errorf("check failed: %s", p)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
			}
			for _, m := range bf.EndToEnd {
				if v, ok := o.e2e[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (reported %v), want > 0", m.Name, v, ok)
				}
			}
			for _, m := range bf.PerLayer {
				if _, ok := o.layer[m.Name]; !ok {
					t.Errorf("per-layer %s not reported", m.Name)
				}
			}
		})
	}
}

// smokeConfig shrinks a workload to seconds of work, for tests.
func smokeConfig(wl workload, set settings) (workload, settings) {
	wl.trainScale = 0.05
	wl.serveScale = 0.05
	if wl.shards > 1 {
		wl.serveScale = 0.03
	}
	set.setups = 2
	set.retrains = 2
	set.nominalEvents, set.stepEvents = 60, 40
	set.rebuildInterval = 300 * time.Millisecond
	return wl, set
}
