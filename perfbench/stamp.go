package main

// Machine stamp: the facts a figure depends on beyond the code. fsync
// cost depends on the filesystem under the event log, so that is part of
// it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type stamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Platform   string `json:"platform"`
	Kernel     string `json:"kernel"`
	WALFS      string `json:"wal_fs"`
}

func machineStamp(walDir string) stamp {
	s := stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
		Kernel:     "unknown",
		WALFS:      "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	s.WALFS = mountFS(walDir)
	return s
}

// mountFS returns the filesystem type of the mount holding dir, from the
// longest matching mount point in /proc/mounts.
func mountFS(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if r, err := filepath.EvalSymlinks(abs); err == nil {
		abs = r
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}

// baseline is perfbench/baseline.json: the machine the recorded figures
// ran on, and the test AUC and ranking hash each recorded seed must
// reproduce.
type baseline struct {
	Stamp    stamp                                 `json:"stamp"`
	Recorded map[string]map[string]recordedRetrain `json:"recorded"`
}

type recordedRetrain struct {
	AUC  float64 `json:"test_auc"`
	Hash string  `json:"ranking_hash"`
}

func loadBaseline(path string) (*baseline, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl baseline
	if err := json.Unmarshal(b, &bl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bl, nil
}

// stampDiff lists the fields in which two stamps differ.
func stampDiff(a, b stamp) []string {
	var d []string
	add := func(name, x, y string) {
		if x != y {
			d = append(d, fmt.Sprintf("%s %q vs %q", name, x, y))
		}
	}
	add("cpu", a.CPU, b.CPU)
	add("nproc", fmt.Sprint(a.NumCPU), fmt.Sprint(b.NumCPU))
	add("gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS))
	add("go", a.GoVersion, b.GoVersion)
	add("platform", a.Platform, b.Platform)
	add("kernel", a.Kernel, b.Kernel)
	add("wal_fs", a.WALFS, b.WALFS)
	return d
}

// stealSeconds is the CPU time the hypervisor has withheld from this
// machine's CPUs since boot (the steal column of /proc/stat), summed
// over CPUs; 0 where it is not reported. A run's figures are comparable
// only while it stays low.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks float64
	fmt.Sscan(f[8], &ticks)
	return ticks / 100 // USER_HZ
}

// lessSteal is a wall time less the time the hypervisor withheld from it:
// the steal over the interval shared out over the CPUs. With every CPU
// busy, the steal on each delays the work by about its share; with fewer
// busy CPUs the delay is larger, and the result errs towards the raw wall
// time. On a shared host steal comes and goes for minutes at a time and
// can add half again to a raw wall time, while the program's own work is
// unchanged.
func lessSteal(wallS, stealS float64) float64 {
	return wallS - stealS/float64(runtime.NumCPU())
}
