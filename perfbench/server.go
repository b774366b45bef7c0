package main

// A pipeserve child process: start, wait until ready, scrape /metrics,
// stop gracefully or kill.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // set before exited closes
}

// startServer launches pipeserve with args (plus a loopback ephemeral
// address), logs its standard error to logPath, and returns once it has
// printed its listening address.
func startServer(bin string, args []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start pipeserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("pipeserve exited before listening (%v); see %s", s.err, logPath)
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pipeserve did not listen within 120s; see %s", logPath)
	}
}

// dieWithParent has the kernel kill cmd's process if perfbench dies first,
// so a killed run leaves no child behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pipeserve not ready after %s", timeout)
		}
		select {
		case <-s.exited:
			return fmt.Errorf("pipeserve exited: %v", s.err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM (graceful drain) and waits; after 30s it kills.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.err
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("pipeserve ignored SIGTERM for 30s")
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// metricsSnapshot is the GET /metrics document.
type metricsSnapshot struct {
	Counters   map[string]float64   `json:"counters"`
	Gauges     map[string]float64   `json:"gauges"`
	Histograms map[string]histogram `json:"histograms"`
}

// histogram is one /metrics histogram; bucket counts are per bucket, not
// cumulative.
type histogram struct {
	Count   float64 `json:"count"`
	Sum     float64 `json:"sum"`
	Buckets []struct {
		LE    string  `json:"le"`
		Count float64 `json:"count"`
	} `json:"buckets"`
}

func scrape(ctx context.Context, client *http.Client, base string) (*metricsSnapshot, error) {
	var m metricsSnapshot
	if err := getJSON(ctx, client, base+"/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// quantile estimates the q-quantile as the upper bound of the bucket
// holding it; 0 for an empty histogram or the +Inf bucket.
func (h histogram) quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target, seen := q*h.Count, 0.0
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= target {
			v, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				return 0
			}
			return v
		}
	}
	return 0
}

// mergeHistograms sums histograms that share bucket bounds.
func mergeHistograms(hs []histogram) histogram {
	var sum histogram
	for i, h := range hs {
		if i == 0 {
			sum.Buckets = append(sum.Buckets, h.Buckets...)
		} else {
			for k := range sum.Buckets {
				if k < len(h.Buckets) {
					sum.Buckets[k].Count += h.Buckets[k].Count
				}
			}
		}
		sum.Count += h.Count
		sum.Sum += h.Sum
	}
	return sum
}

// sumMatching adds every counter or gauge whose name has prefix and
// suffix.
func sumMatching(vals map[string]float64, prefix, suffix string) float64 {
	total := 0.0
	for k, v := range vals {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			total += v
		}
	}
	return total
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}
