package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/gateway/proto"
	"golapi/internal/lapi"
	"golapi/internal/sim"
	"golapi/internal/tcpnet"
)

// layerSuite measures the per-layer metrics on fixed reference work, the
// same in every traced run whichever workload it traces: a probe of each
// layer on its own, one mesh1k job at one shard and at nproc shards, one
// paper round on nproc workers and serially, and one gateway pass through
// the light, heavy and saturation phases. Its operations and rounds are
// kept apart from the workload's; its output checks count.
func layerSuite(e *env) (map[string]metric, error) {
	s := &env{seed: e.seed, nproc: e.nproc, px: e.px, heap: e.heap}
	defer func() { e.problems = append(e.problems, s.problems...) }()
	out := map[string]metric{}

	ns, err := simEventNs(500_000)
	if err != nil {
		return nil, err
	}
	out["sim.event_ns"] = metric{ns, "ns"}
	if ns, err = simHandoffNs(200_000); err != nil {
		return nil, err
	}
	out["sim.handoff_ns"] = metric{ns, "ns"}

	putUs, putAllocs, err := simPut(5000)
	if err != nil {
		return nil, err
	}
	out["lapi.sim_put_us"] = metric{putUs, "us"}
	out["lapi.sim_allocs_per_put"] = metric{putAllocs, "count"}

	tcp, err := tcpPut(5000)
	if err != nil {
		return nil, err
	}
	out["lapi.tcp_put_us"] = metric{tcp.p50Small, "us"}
	out["lapi.tcp_allocs_per_put"] = metric{tcp.allocs, "count"}
	rtt, err := tcpnetRTT(5000)
	if err != nil {
		return nil, err
	}
	out["tcpnet.frame_rtt_us"] = metric{rtt, "us"}

	// The mesh1k job on one shard, as the workload runs it, then on nproc
	// shards for the epoch loop's numbers; their virtual times must match.
	plan := newMeshPlan(e.seed, meshTasks)
	serial, err := meshRound(s, plan, 1)
	if err != nil || serial == nil || len(s.problems) > 0 {
		return nil, fmt.Errorf("mesh1k one-shard job: %v %v", err, s.problems)
	}
	sharded, err := meshRound(s, plan, e.nproc)
	if err != nil || sharded == nil || len(s.problems) > 0 {
		return nil, fmt.Errorf("mesh1k %d-shard job: %v %v", e.nproc, err, s.problems)
	}
	for k, v := range meshLayers(serial) {
		out[k] = v
	}
	for k, v := range epochLayers(sharded) {
		out[k] = v
	}
	out["parallel.mesh1k_speedup"] = metric{serial.wall.Seconds() / sharded.wall.Seconds(), "x"}
	s.check(sameVirtualTimes(serial, sharded))

	// paper reference round on nproc workers, then serially.
	took, err := paperRound(s, 0, e.px)
	if err != nil {
		return nil, err
	}
	par := s.walls[len(s.walls)-1]
	if _, err := paperRound(s, 0, nil); err != nil {
		return nil, err
	}
	out["parallel.sweep_speedup"] = metric{s.walls[len(s.walls)-1] / par, "x"}
	for _, x := range paperExperiments {
		out["bench."+x.name+"_s"] = metric{took[x.name], "s"}
	}

	gwm, err := gatewayLayers(s, tcp.p50Seg)
	if err != nil {
		return nil, err
	}
	for k, v := range gwm {
		out[k] = v
	}

	overhead := 0.0
	if on, off := median(e.cpuOn), median(e.cpuOff); off > 0 {
		overhead = (on/off - 1) * 100
	}
	out["benchmark.trace_overhead_pct"] = metric{overhead, "%"}
	return out, nil
}

// sameVirtualTimes: sharding changes which core runs a rank, never a
// virtual instant.
func sameVirtualTimes(a, b *meshRun) error {
	for k, name := range meshPatterns {
		for r := range a.end[k] {
			if a.start[k][r] != b.start[k][r] || a.end[k][r] != b.end[k][r] {
				return fmt.Errorf("mesh1k %s: rank %d virtual times %v..%v on %d shard(s), %v..%v on %d",
					name, r, a.start[k][r], a.end[k][r], a.shards, b.start[k][r], b.end[k][r], b.shards)
			}
		}
	}
	return nil
}

// simEventNs is host time per timer event scheduled and fired on a bare
// engine.
func simEventNs(n int) (float64, error) {
	eng := sim.NewEngine()
	fn := func() {}
	start := time.Now()
	for i := 0; i < n; i++ {
		eng.Schedule(time.Duration(i), fn)
	}
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// simHandoffNs is host time per handoff between two simulated processes
// taking turns on a Cond.
func simHandoffNs(n int) (float64, error) {
	eng := sim.NewEngine()
	c := sim.NewCond(eng)
	turn := 0
	for id := 0; id < 2; id++ {
		id := id
		eng.Go(fmt.Sprintf("turn-%d", id), func(p *sim.Proc) {
			for k := 0; k < n; k++ {
				for turn != id {
					p.WaitCond(c)
				}
				turn = 1 - id
				c.Broadcast()
			}
		})
	}
	start := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(2*n), nil
}

// mallocs is the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// simPut times n 4-byte PutSyncs between two simulated tasks, returning
// host µs and process-wide allocations per Put.
func simPut(n int) (us, allocs float64, err error) {
	j, err := cluster.NewSimDefault(2)
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		addrs, err := t.AddressInit(ctx, t.Alloc(64))
		if err != nil {
			runErr = err
			return
		}
		if t.Self() == 0 {
			src := []byte{1, 2, 3, 4}
			for i := 0; i < 64; i++ { // warm pools and free lists
				t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter)
			}
			m0 := mallocs()
			start := time.Now()
			for i := 0; i < n; i++ {
				if err := t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter); err != nil {
					runErr = err
					break
				}
			}
			us = micros(time.Since(start)) / float64(n)
			allocs = float64(mallocs()-m0) / float64(n)
		}
		t.Gfence(ctx)
	})
	if err == nil {
		err = runErr
	}
	return us, allocs, err
}

// tcpPutResult is the loopback-TCP LAPI probe: p50 of a 4-byte and of a
// gateway-segment-sized PutSync, and allocations per 4-byte Put.
type tcpPutResult struct {
	p50Small, p50Seg, allocs float64
}

// tcpPut times PutSyncs between two LAPI tasks over loopback TCP, with the
// gateway's LAPI configuration.
func tcpPut(n int) (tcpPutResult, error) {
	var res tcpPutResult
	cfg := lapi.ZeroCost()
	cfg.RndvLimit = 32 << 10
	j, err := cluster.NewTCPLAPI(2, cfg)
	if err != nil {
		return res, err
	}
	var runErr error
	var mu sync.Mutex
	setErr := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if runErr == nil {
			runErr = err
		}
	}
	err = j.Run(func(ctx exec.Context, t *lapi.Task) {
		addrs, err := t.AddressInit(ctx, t.Alloc(gwSeg*8))
		if err != nil {
			setErr(err)
			return
		}
		if t.Self() == 0 {
			timed := func(size int) []float64 {
				src := make([]byte, size)
				lat := make([]float64, n)
				for i := range lat {
					start := time.Now()
					if err := t.PutSync(ctx, 1, addrs[1], src, lapi.NoCounter); err != nil {
						setErr(err)
					}
					lat[i] = micros(time.Since(start))
				}
				return lat
			}
			timed(4) // warm connections, pools and free lists
			m0 := mallocs()
			small := timed(4)
			res.allocs = float64(mallocs()-m0) / float64(n)
			res.p50Small = median(small)
			res.p50Seg = median(timed(gwSeg * 8))
		}
		t.Gfence(ctx)
	})
	if err == nil {
		err = runErr
	}
	return res, err
}

// tcpnetRTT is the p50 round trip of a 16-byte frame echoed between two
// endpoints through the public Transport API.
func tcpnetRTT(n int) (float64, error) {
	addrs, err := tcpnet.LocalAddrs(2)
	if err != nil {
		return 0, err
	}
	eps := make([]*tcpnet.Endpoint, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = tcpnet.Dial(exec.NewRealRuntime(), i, 2, addrs, 0)
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		for _, ep := range eps {
			if ep != nil {
				ep.Drain()
			}
		}
	}()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	echo, got := eps[1], make(chan struct{}, 1)
	echo.SetDeliver(func(src int, data []byte) {
		out := echo.Alloc(len(data))
		copy(out, data)
		echo.Release(data)
		echo.Send(nil, src, out, nil)
	})
	eps[0].SetDeliver(func(src int, data []byte) {
		eps[0].Release(data)
		got <- struct{}{}
	})
	lat := make([]float64, 0, n)
	timeout := time.NewTimer(readDeadline)
	defer timeout.Stop()
	for i := 0; i < n+n/10; i++ { // the first tenth warms up
		start := time.Now()
		eps[0].Send(nil, 1, eps[0].Alloc(16), nil)
		timeout.Reset(readDeadline)
		select {
		case <-got:
		case <-timeout.C:
			return 0, fmt.Errorf("tcpnet: no echo within %v", readDeadline)
		}
		if i >= n/10 {
			lat = append(lat, micros(time.Since(start)))
		}
	}
	return median(lat), nil
}

// gatewayLayers runs one gateway pass: a light phase, a heavy phase at a
// third of capacity with allocation and GC accounting, a saturation phase,
// and the overhead of a synchronous gateway Put over the LAPI Put under it.
func gatewayLayers(s *env, lapiSegUs float64) (map[string]metric, error) {
	g, err := gwSetup(s.seed, gwSessions(s))
	if err != nil {
		return nil, err
	}
	light, lateL := g.phase(s, lightRate, -1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heavy, lateH := g.phase(s, heavyRate, -1)
	runtime.ReadMemStats(&m1)
	g.saturate(s, 0)
	remote := gwRemotePuts(g, 2000)
	for _, err := range g.close() {
		s.check(err)
	}
	reqs := float64(len(heavy))
	return map[string]metric{
		"gateway.p50_light_us":   {percentile(light, 50), "us"},
		"gateway.p50_heavy_us":   {percentile(heavy, 50), "us"},
		"gateway.p90_light_us":   {percentile(light, 90), "us"},
		"gateway.p90_heavy_us":   {percentile(heavy, 90), "us"},
		"gateway.p99_light_us":   {percentile(light, 99), "us"},
		"gateway.p99_heavy_us":   {percentile(heavy, 99), "us"},
		"gateway.allocs_per_req": {float64(m1.Mallocs-m0.Mallocs) / reqs, "count"},
		"gateway.gc_cycles":      {float64(m1.NumGC - m0.NumGC), "count"},
		"gateway.sessions_cut":   {float64(g.cut), "count"},
		"gateway.overhead_us":    {median(remote) - lapiSegUs, "us"},
		"benchmark.late_p99_us":  {percentile(append(lateL, lateH...), 99), "us"},
	}, nil
}

// gwRemotePuts times n synchronous segment Puts from the first session
// (home rank 0) into the columns rank 1 owns, keeping its shadow current.
func gwRemotePuts(g *gw, n int) []float64 {
	s := g.sess[0]
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		row := s.idx + s.of*(i%len(s.shadow))
		col := gwCols/2 + gwSeg*(i%(gwCols/2/gwSeg))
		for k := range s.vals {
			s.vals[k] = float64(i*gwSeg + k)
		}
		start := time.Now()
		st, err := s.conn.Put(g.arr, row, col, s.vals)
		d := time.Since(start)
		if err != nil || st != proto.StatusOK {
			s.fail("overhead probe put: %v %v", st, err)
			s.dirty[[2]int{row, col}] = true
			break
		}
		s.answered++
		copy(s.shadow[row/s.of][col:col+gwSeg], s.vals)
		lat = append(lat, micros(d))
	}
	return lat
}
