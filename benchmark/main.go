// Command golapi-benchmark is golapi's end-to-end benchmark. One run
// drives one workload for a fixed measuring time and prints, as its last
// line, a JSON object with the operations attempted and failed, whether
// every output check passed, and the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). README.md describes the workloads,
// the metrics, and which layer metric should move which end-to-end one.
//
//	golapi-benchmark --workload paper --seed 1 --seconds 20 --trace 0
//	golapi-benchmark steady
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"golapi/internal/parallel"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named set of inputs. run sets up (recording each
// set-up's time), then measures whole rounds of fixed work until the
// measuring time is spent.
type workload struct {
	name string
	run  func(e *env) error
}

var workloads = []workload{
	{"paper", runPaper},
	{"mesh1k", runMesh},
	{"gateway", runGateway},
}

// runLimit bounds a whole run. A stalled mesh or gateway session fails its
// operations through the layer's own deadlines long before this; the limit
// is the last resort that keeps a run from hanging.
const runLimit = 170 * time.Second

// traceDir, under the checkout root, receives the traced run's span file.
const traceDir = ".bench_build/traces"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain())
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("golapi-benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	secs := fs.Int("seconds", 10, "measuring time in seconds (whole rounds only)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and a span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "--seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	limit := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "run exceeded %v; aborting without a result. Goroutines:\n", runLimit)
		buf := make([]byte, 8<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		os.Exit(3)
	})
	defer limit.Stop()

	e := newEnv(*seed, time.Duration(*secs)*time.Second)
	defer e.heap.close()
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d go=%s workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), e.nproc)

	var metrics map[string]metric
	if *trace == 0 {
		if err := w.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		metrics = e.endToEnd()
	} else {
		e.tr = newTracer()
		if err := w.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		var err error
		if metrics, err = layerSuite(e); err != nil {
			fmt.Fprintf(os.Stderr, "layer suite: %v\n", err)
			return 1
		}
		path, err := e.tr.write(traceDir, w.name, *seed, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %s\n", path)
	}

	for _, p := range e.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("attempted %d, failed %d, rounds %d\n", e.attempted, e.failed, len(e.walls))
	out, err := json.Marshal(result{
		Correct:   len(e.problems) == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// env carries one run's settings and everything it measures.
type env struct {
	seed    uint64
	seconds time.Duration
	nproc   int // sweep workers, shards and client sessions stay within it
	px      *parallel.Executor
	heap    *heapSampler

	// tr is nil with tracing off. In a traced run, rounds alternate
	// between recording spans (spansOn) and not, so the tracing cost is
	// itself measured.
	tr      *tracer
	spansOn bool
	cpuOn   []float64
	cpuOff  []float64

	setups    []float64 // seconds per set-up
	walls     []float64 // seconds per round
	cpus      []float64 // CPU seconds per round
	peaks     []float64 // peak heap MB per round
	attempted int64
	failed    int64
	problems  []string // failed output checks
}

func newEnv(seed uint64, secs time.Duration) *env {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return &env{
		seed:    seed,
		seconds: secs,
		nproc:   n,
		px:      parallel.New(n),
		heap:    startHeapSampler(),
	}
}

// maxProblems keeps a broken program from flooding the output.
const maxProblems = 20

// problem records a failed output check.
func (e *env) problem(format string, args ...any) {
	if len(e.problems) < maxProblems {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// check records err, if any, as a failed output check.
func (e *env) check(err error) {
	if err != nil {
		e.problem("%v", err)
	}
}

// timeSetup records fn's duration as one set-up.
func (e *env) timeSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	e.setups = append(e.setups, time.Since(start).Seconds())
	return err
}

// measure times fn as one round of fixed work: wall, CPU and peak heap.
// A collection first makes every round start from the same heap, so its
// peak does not depend on where the previous round left the GC cycle.
func (e *env) measure(fn func() error) error {
	runtime.GC()
	e.heap.reset()
	c0 := cpuSeconds()
	start := time.Now()
	err := fn()
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - c0
	e.walls = append(e.walls, wall)
	e.cpus = append(e.cpus, cpu)
	e.peaks = append(e.peaks, e.heap.peakMB())
	if e.tr != nil {
		if e.spansOn {
			e.cpuOn = append(e.cpuOn, cpu)
		} else {
			e.cpuOff = append(e.cpuOff, cpu)
		}
	}
	return err
}

// rounds calls round until the measuring time is spent, finishing the
// round in progress, so every run attempts whole rounds. A traced run
// makes at least two, one with spans and one without.
func (e *env) rounds(round func(i int) error) error {
	minRounds := 1
	if e.tr != nil {
		minRounds = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minRounds && time.Since(start) >= e.seconds {
			e.spansOn = false
			return nil
		}
		e.spansOn = e.tr != nil && i%2 == 0
		if err := round(i); err != nil {
			return err
		}
	}
}

// span opens a span when this round records them; close it with endSpan.
func (e *env) span(name string, parent int32) int32 {
	if !e.spansOn {
		return -1
	}
	return e.tr.begin(name, parent)
}

func (e *env) endSpan(id int32) {
	if e.spansOn {
		e.tr.end(id)
	}
}

// recordSpan adds a finished span whose host times were taken elsewhere.
func (e *env) recordSpan(name string, parent int32, start, end time.Time) {
	if e.spansOn {
		e.tr.record(name, parent, start, end)
	}
}

// endToEnd folds the untraced run into the metrics BENCHMARK.json lists,
// each the median over the run's rounds or set-ups.
func (e *env) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":      {median(e.setups), "s"},
		"wall_s":       {median(e.walls), "s"},
		"cpu_s":        {median(e.cpus), "s"},
		"peak_heap_mb": {median(e.peaks), "MB"},
	}
}
