package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

const (
	steadySets = 2  // sets compared with each other
	steadyRuns = 10 // runs per set, each with its own seed
)

// steadyMain runs every workload of BENCHMARK.json in two sets of ten
// runs, seeds 1-10 and 11-20, each a process of its own with tracing off
// and the spec's run_seconds. For every end-to-end metric it prints each
// set's median and spread, (q3-q1)/median, and how much worse
// the second median is than the first, beside the metric's bound; and the
// share of failed operations, which must be the same in every run.
func steadyMain() int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	status := 0
	for _, w := range spec.Workloads {
		var values [steadySets]map[string][]float64
		shares := map[float64]int{} // failed/attempted: equal fractions divide to the same float
		for set := range values {
			values[set] = map[string][]float64{}
			for i := 0; i < steadyRuns; i++ {
				seed := set*steadyRuns + i + 1
				res, took, err := steadyRun(self, w.Name, seed, spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.Name, seed, err)
					status = 1
					continue
				}
				shares[float64(res.Failed)/float64(res.Attempted)]++
				fmt.Printf("%s seed %d: %.1fs correct=%v attempted=%d failed=%d",
					w.Name, seed, took.Seconds(), res.Correct, res.Attempted, res.Failed)
				for _, m := range spec.EndToEnd {
					values[set][m.Name] = append(values[set][m.Name], res.Metrics[m.Name].Value)
					fmt.Printf(" %s=%.4g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Println()
				if !res.Correct {
					status = 1
				}
			}
		}
		fmt.Printf("\n%s (%d sets of %d runs, %ds each)\n", w.Name, steadySets, steadyRuns, spec.RunSeconds)
		fmt.Printf("  %-14s %12s %8s %12s %8s %8s %7s\n", "metric", "median 1", "spread", "median 2", "spread", "worse", "bound")
		for _, m := range spec.EndToEnd {
			med1, spread1 := steadyStats(values[0][m.Name])
			med2, spread2 := steadyStats(values[1][m.Name])
			worse := 0.0
			if med1 != 0 {
				worse = (med2 - med1) / med1
				if m.Better == "higher" {
					worse = -worse
				}
			}
			fmt.Printf("  %-14s %12.6g %7.2f%% %12.6g %7.2f%% %7.2f%% %6.0f%%\n",
				m.Name, med1, 100*spread1, med2, 100*spread2, 100*worse, 100*m.Bound)
		}
		fmt.Printf("  failed share: runs per value %v\n\n", shares)
		if len(shares) != 1 {
			status = 1
		}
	}
	return status
}

// steadyRun runs one untraced run in a child process and parses its last
// output line.
func steadyRun(self, workload string, seed, seconds int) (result, time.Duration, error) {
	var res result
	start := time.Now()
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, 0, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	err = json.Unmarshal(lines[len(lines)-1], &res)
	return res, time.Since(start), err
}

// steadyStats returns the median and spread of v.
func steadyStats(v []float64) (med, spread float64) {
	q1, med, q3 := quartiles(v)
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return med, spread
}
