package main

import (
	"fmt"
	"sync"
	"time"

	"golapi/internal/bench"
	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/parallel"
	"golapi/internal/switchnet"
)

// paperOut holds one round of the paper's experiments.
type paperOut struct {
	t2    bench.Table2
	pipe  bench.Pipeline
	fig2  []bench.BandwidthPoint
	gaLat bench.GALatency
	app   bench.AppResult
}

// experiment is one operation of the paper workload: a group of Measure*
// calls that regenerates one table or figure family.
type experiment struct {
	name string // per-layer metric "bench.<name>_s"
	run  func(px *parallel.Executor, o *paperOut) error
}

// paperExperiments is every virtual-time experiment lapibench -exp all and
// gabench -exp all regenerate, at their default sizes.
var paperExperiments = []experiment{
	{"table2", func(px *parallel.Executor, o *paperOut) (err error) {
		if o.t2, err = bench.MeasureTable2(px); err != nil {
			return err
		}
		o.pipe, err = bench.MeasurePipeline()
		return err
	}},
	{"fig2", func(px *parallel.Executor, o *paperOut) (err error) {
		o.fig2, err = bench.MeasureFigure2Rndv(px, bench.Figure2Sizes(), 0)
		return err
	}},
	{"scale", func(px *parallel.Executor, o *paperOut) error {
		_, err := bench.MeasureScale(px, []int{2, 4, 8, 16, 32, 64})
		return err
	}},
	{"collective", func(px *parallel.Executor, o *paperOut) error {
		_, err := bench.MeasureCollective(px, bench.DefaultCollectiveTasks, bench.DefaultCollectiveSizes)
		return err
	}},
	{"rndv", func(px *parallel.Executor, o *paperOut) error {
		_, err := bench.MeasureRndvSweep(px, bench.RndvSweepSizes())
		return err
	}},
	{"ga", func(px *parallel.Executor, o *paperOut) (err error) {
		if o.gaLat, err = bench.MeasureGALatency(px); err != nil {
			return err
		}
		if _, err = bench.MeasureFigure3(px, bench.Figure34Sizes()); err != nil {
			return err
		}
		_, err = bench.MeasureFigure4(px, bench.Figure34Sizes())
		return err
	}},
	{"ablation", func(px *parallel.Executor, o *paperOut) error {
		if _, err := bench.MeasureVectorAblation(px, []int{8192, 32768, 131072, 524288}); err != nil {
			return err
		}
		if _, err := bench.MeasureChunkAblation(px, []int{128, 256, 512, 900, 2048, 4096}); err != nil {
			return err
		}
		_, err := bench.MeasureSwitchAblation(px, []int{32 * 1024, 128 * 1024, 512 * 1024, 1 << 20, 4 << 20})
		return err
	}},
	{"app", func(px *parallel.Executor, o *paperOut) (err error) {
		o.app, err = bench.MeasureApplication(px)
		return err
	}},
}

// paperSetups is how many times a run sets up; setup_s is their median.
const paperSetups = 21

// paperBringUpTasks is the sweep's largest job (job-size scaling's last
// point).
const paperBringUpTasks = 64

// runPaper: set-up is the bring-up every experiment repeats for each of
// its jobs, at the sweep's largest size: a simulated cluster built and
// its AddressInit run. A round runs every experiment once, in an order
// drawn from the seed; the experiments themselves take no other input.
func runPaper(e *env) error {
	for i := 0; i < paperSetups; i++ {
		if err := e.timeSetup(func() error { return bringUp(paperBringUpTasks) }); err != nil {
			return fmt.Errorf("bring-up: %w", err)
		}
	}
	return e.rounds(func(r int) error {
		_, err := paperRound(e, r, e.px)
		return err
	})
}

// bringUp builds an n-task simulated cluster with the default configs and
// runs AddressInit across it.
func bringUp(n int) error {
	j, err := cluster.NewSimDefault(n)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var initErr error
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		if _, err := t.AddressInit(ctx, t.Alloc(64)); err != nil {
			mu.Lock()
			initErr = err
			mu.Unlock()
		}
	})
	if err == nil {
		err = initErr
	}
	return err
}

// paperRound runs one round on px, checks its outputs, and returns each
// experiment's host seconds by name.
func paperRound(e *env, r int, px *parallel.Executor) (map[string]float64, error) {
	order := make([]int, len(paperExperiments))
	for i := range order {
		order[i] = i
	}
	g := newRNG(e.seed, uint64(r))
	for i := len(order) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	var o paperOut
	took := make(map[string]float64, len(order))
	err := e.measure(func() error {
		root := e.span("paper.round", -1)
		defer e.endSpan(root)
		for _, i := range order {
			x := paperExperiments[i]
			e.attempted++
			id := e.span("bench."+x.name, root)
			start := time.Now()
			err := x.run(px, &o)
			d := time.Since(start)
			e.endSpan(id)
			if err != nil {
				e.failed++
				e.problem("%s: %v", x.name, err)
				continue
			}
			took[x.name] = d.Seconds()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, err := range checkPaper(&o, lapi.DefaultConfig(), switchnet.DefaultConfig()) {
		e.check(err)
	}
	return took, nil
}

// checkPaper verifies one round against the cost model, computed here from
// the public default configurations, and against the orderings the paper
// reports.
func checkPaper(o *paperOut, lcfg lapi.Config, scfg switchnet.Config) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	wire := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / scfg.Bandwidth * float64(time.Second))
	}
	copyCost := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / lcfg.MemcpyBandwidth * float64(time.Second))
	}
	near := func(got, want, tol time.Duration) bool { d := got - want; return d >= -tol && d <= tol }

	// A 4-byte polling-mode Put: origin overheads, one packet on the wire,
	// receive overhead. The tolerance covers nanosecond rounding of the
	// per-term float conversions.
	oneWay := lcfg.OpOverhead + copyCost(4) + lcfg.SendOverhead + wire(lcfg.HeaderBytes+4) + scfg.WireLatency + lcfg.RecvOverhead
	if !near(o.t2.LAPIPolling, oneWay, 10*time.Nanosecond) {
		fail("table2: LAPI polling one-way %v, cost model %v", o.t2.LAPIPolling, oneWay)
	}
	if want := lcfg.OpOverhead + copyCost(4) + lcfg.SendOverhead; !near(o.pipe.Put, want, 10*time.Nanosecond) {
		fail("pipeline: Put %v, cost model %v", o.pipe.Put, want)
	}
	if want := lcfg.OpOverhead + lcfg.GetExtra + lcfg.SendOverhead; !near(o.pipe.Get, want, 10*time.Nanosecond) {
		fail("pipeline: Get %v, cost model %v", o.pipe.Get, want)
	}

	// Figure 2's largest point is link-limited: one packet's payload per
	// packet wire time. 2 MB rides the rendezvous lane, whose fragments
	// carry a 12-byte (token, offset) header.
	if len(o.fig2) == 0 {
		fail("fig2: no points")
	} else {
		last := o.fig2[len(o.fig2)-1]
		perPacket := float64(scfg.PacketBytes) / scfg.Bandwidth
		asym := float64(scfg.PacketBytes-12) / perPacket / 1e6
		if last.LAPI < asym*0.97 || last.LAPI > asym*1.03 {
			fail("fig2: LAPI %d B at %.2f MB/s, not within 3%% of the %.2f MB/s wire asymptote", last.Size, last.LAPI, asym)
		}
		lapiHalf := bench.HalfPeakSize(o.fig2, func(p bench.BandwidthPoint) float64 { return p.LAPI })
		mpiHalf := bench.HalfPeakSize(o.fig2, func(p bench.BandwidthPoint) float64 { return p.MPIDefault })
		if lapiHalf >= mpiHalf {
			fail("fig2: LAPI half-peak size %d B not below MPI's %d B", lapiHalf, mpiHalf)
		}
	}

	// The paper's orderings (Table 2, §5.4).
	if o.t2.LAPIPolling >= o.t2.MPIPolling || o.t2.LAPIPollingRT >= o.t2.MPIPollingRT {
		fail("table2: LAPI (%v one-way, %v RT) not below MPI (%v, %v)",
			o.t2.LAPIPolling, o.t2.LAPIPollingRT, o.t2.MPIPolling, o.t2.MPIPollingRT)
	}
	if !(o.t2.LAPIPollingRT < o.t2.LAPIInterruptRT && o.t2.LAPIInterruptRT < o.t2.MPLInterruptRT) {
		fail("table2: want polling RT %v < interrupt RT %v < MPL rcvncall RT %v",
			o.t2.LAPIPollingRT, o.t2.LAPIInterruptRT, o.t2.MPLInterruptRT)
	}
	if o.gaLat.LAPIGet >= o.gaLat.MPLGet || o.gaLat.LAPIPut >= o.gaLat.MPLPut {
		fail("ga: LAPI get/put %v/%v not below MPL %v/%v",
			o.gaLat.LAPIGet, o.gaLat.LAPIPut, o.gaLat.MPLGet, o.gaLat.MPLPut)
	}
	if o.app.LAPITime <= 0 || o.app.LAPITime >= o.app.MPLTime {
		fail("app: GA over LAPI %v not faster than over MPL %v", o.app.LAPITime, o.app.MPLTime)
	}
	return errs
}
