package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"golapi/internal/bench"
	"golapi/internal/cluster"
	"golapi/internal/exec"
	"golapi/internal/lapi"
	"golapi/internal/stats"
	"golapi/internal/switchnet"
)

// The thousand-task mesh: 1024 tasks on bench.Mesh1kConfig's 32-ary
// two-level fat tree, run through the sharded simulator's epoch loop. One
// round is one job: AddressInit, then the uniform, hot-spot and
// butterfly-allreduce patterns back to back, each closed by a Gfence.
const (
	meshTasks  = bench.Mesh1kTasks
	meshSlot   = 32 // bytes per put and per landing slot
	meshRounds = 2  // puts per rank per point-to-point pattern
)

var meshPatterns = [3]string{"uniform", "hotspot", "allreduce"}

// meshPlan is a run's inputs, drawn from the seed: the uniform pattern's
// targets and every rank's payload per pattern.
type meshPlan struct {
	n       int
	levels  int
	targets []int32   // [src*meshRounds+round] uniform target
	landed  [][]int32 // [tgt] sources whose uniform puts land there
	payload [3][][]byte
	fold    []byte // XOR of every rank's allreduce value
}

func newMeshPlan(seed uint64, n int) *meshPlan {
	p := &meshPlan{n: n, targets: make([]int32, n*meshRounds), landed: make([][]int32, n)}
	for 1<<p.levels < n {
		p.levels++
	}
	for src := 0; src < n; src++ {
		g := newRNG(seed, 0x11, uint64(src))
		seen := -1
		for r := 0; r < meshRounds; r++ {
			tgt := g.intn(n - 1)
			if tgt >= src {
				tgt++ // never self
			}
			p.targets[src*meshRounds+r] = int32(tgt)
			if tgt != seen {
				p.landed[tgt] = append(p.landed[tgt], int32(src))
			}
			seen = tgt
		}
	}
	p.fold = make([]byte, meshSlot)
	for k := range p.payload {
		p.payload[k] = make([][]byte, n)
		for src := 0; src < n; src++ {
			g := newRNG(seed, 0x22+uint64(k), uint64(src))
			b := make([]byte, meshSlot)
			for i := range b {
				b[i] = byte(g.next()) | 1 // never zero: an empty slot reads as zero
			}
			p.payload[k][src] = b
			if k == 2 {
				for i := range b {
					p.fold[i] ^= b[i]
				}
			}
		}
	}
	return p
}

// meshRun is what one job records. Virtual instants are per rank; host
// marks are taken by rank 0 as it passes each phase boundary.
type meshRun struct {
	plan   *meshPlan
	start  [3][]time.Duration
	end    [3][]time.Duration
	host   [5]time.Time // job start, after AddressInit, after each pattern
	mu     sync.Mutex
	faults []string
	shards int
	wall   time.Duration
	build  time.Duration
	sw     *switchnet.Switch
}

func (m *meshRun) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.faults) < maxProblems {
		m.faults = append(m.faults, fmt.Sprintf(format, args...))
	}
}

func (m *meshRun) check(err error) {
	if err != nil {
		m.fail("%v", err)
	}
}

// checkUniform: rank self's slots hold the payload of exactly the ranks
// whose uniform puts targeted it, and zeros elsewhere.
func (p *meshPlan) checkUniform(self int, got []byte) error {
	zero := make([]byte, meshSlot)
	want := p.landed[self]
	for src := 0; src < p.n; src++ {
		slot := got[src*meshSlot : (src+1)*meshSlot]
		exp := zero
		if len(want) > 0 && int(want[0]) == src {
			exp, want = p.payload[0][src], want[1:]
		}
		if !bytes.Equal(slot, exp) {
			return fmt.Errorf("uniform: rank %d slot %d holds % x, want % x", self, src, slot[:4], exp[:4])
		}
	}
	return nil
}

// checkHotspotSlots: rank 0's hot-spot slots hold every other rank's
// hot-spot payload.
func (p *meshPlan) checkHotspotSlots(got []byte) error {
	for src := 1; src < p.n; src++ {
		if slot := got[src*meshSlot : (src+1)*meshSlot]; !bytes.Equal(slot, p.payload[1][src]) {
			return fmt.Errorf("hotspot: rank 0 slot %d holds % x, want % x", src, slot[:4], p.payload[1][src][:4])
		}
	}
	return nil
}

// checkFold: the allreduce left every rank with the XOR-fold of all
// ranks' values, as computed here from the seed.
func (p *meshPlan) checkFold(self int, val []byte) error {
	if !bytes.Equal(val, p.fold) {
		return fmt.Errorf("allreduce: rank %d holds % x, want XOR-fold % x", self, val[:4], p.fold[:4])
	}
	return nil
}

// puts is the number of PutSyncs one job makes.
func (p *meshPlan) puts() int64 {
	return int64(p.n*meshRounds + (p.n-1)*meshRounds + p.n*p.levels)
}

// virtual returns pattern k's virtual duration: first rank's start to
// last rank's end.
func (m *meshRun) virtual(k int) time.Duration {
	lo, hi := m.start[k][0], m.end[k][0]
	for i := range m.start[k] {
		lo, hi = min(lo, m.start[k][i]), max(hi, m.end[k][i])
	}
	return hi - lo
}

// patternSeconds is pattern k's host time at rank 0's fence boundaries.
func (m *meshRun) patternSeconds(k int) float64 { return m.host[k+2].Sub(m.host[k+1]).Seconds() }

func (m *meshRun) main(ctx exec.Context, t *lapi.Task) {
	p, n, self := m.plan, t.N(), t.Self()
	// Layout: uniform slots, allreduce slots, and at rank 0 only the
	// hot-spot slots, so late hot-spot puts never touch a slot the uniform
	// check is still reading.
	size := n*meshSlot + p.levels*meshSlot
	if self == 0 {
		size += n * meshSlot
	}
	buf := t.Alloc(size)
	red := buf + lapi.Addr(n*meshSlot)
	hot := lapi.Addr((n + p.levels) * meshSlot)
	cntrs := make([]*lapi.Counter, p.levels)
	for l := range cntrs {
		cntrs[l] = t.NewCounter() // same order on every rank: ids align
	}
	addrs, err := t.AddressInit(ctx, buf)
	if err != nil {
		m.fail("rank %d: AddressInit: %v", self, err)
		return // the job then fails as a deadlock
	}
	if self == 0 {
		m.host[1] = time.Now()
	}
	put := func(tgt int, at lapi.Addr, data []byte, c lapi.RemoteCounter) {
		if err := t.PutSync(ctx, tgt, at, data, c); err != nil {
			m.fail("rank %d: put to %d: %v", self, tgt, err)
		}
	}
	slots := func(at lapi.Addr) []byte {
		b, err := t.Bytes(at, n*meshSlot)
		if err != nil {
			m.fail("rank %d: reading slots: %v", self, err)
			return make([]byte, n*meshSlot)
		}
		return b
	}
	phase := func(k int, body func()) {
		m.start[k][self] = ctx.Now()
		body()
		t.Gfence(ctx)
		m.end[k][self] = ctx.Now()
	}

	// Uniform: rounds puts to seeded random peers, each into the
	// sender's own slot at the target.
	phase(0, func() {
		for r := 0; r < meshRounds; r++ {
			tgt := int(p.targets[self*meshRounds+r])
			put(tgt, addrs[tgt]+lapi.Addr(self*meshSlot), p.payload[0][self], lapi.NoCounter)
		}
	})
	m.check(p.checkUniform(self, slots(buf)))
	if self == 0 {
		m.host[2] = time.Now()
	}

	// Hot spot: every other rank puts at rank 0, into its own hot-spot slot.
	phase(1, func() {
		if self != 0 {
			for r := 0; r < meshRounds; r++ {
				put(0, addrs[0]+hot+lapi.Addr(self*meshSlot), p.payload[1][self], lapi.NoCounter)
			}
		}
	})
	if self == 0 {
		m.check(p.checkHotspotSlots(slots(buf + hot)))
		m.host[3] = time.Now()
	}

	// Butterfly XOR-allreduce: level l exchanges with rank self^(1<<l)
	// through a private slot and counter per level.
	phase(2, func() {
		val := append([]byte(nil), p.payload[2][self]...)
		for l := 0; l < p.levels; l++ {
			partner := self ^ (1 << l)
			put(partner, addrs[partner]+lapi.Addr(n*meshSlot+l*meshSlot), val, cntrs[l].ID())
			t.Waitcntr(ctx, cntrs[l], 1)
			slot, err := t.Bytes(red+lapi.Addr(l*meshSlot), meshSlot)
			if err != nil {
				m.fail("rank %d: reading level %d: %v", self, l, err)
				return
			}
			for i := range val {
				val[i] ^= slot[i]
			}
		}
		m.check(p.checkFold(self, val))
	})
	if self == 0 {
		m.host[4] = time.Now()
	}
}

// meshBuild sets up one job on the given shard count.
func meshBuild(e *env, plan *meshPlan, shards int, parent int32) (*meshRun, *cluster.ShardedSim, error) {
	m := &meshRun{plan: plan, shards: shards}
	for k := range m.start {
		m.start[k] = make([]time.Duration, plan.n)
		m.end[k] = make([]time.Duration, plan.n)
	}
	id := e.span("cluster.NewShardedSim", parent)
	t0 := time.Now()
	j, err := cluster.NewShardedSim(e.px, shards, plan.n, bench.Mesh1kConfig(), lapi.DefaultConfig())
	m.build = time.Since(t0)
	e.endSpan(id)
	if err != nil {
		return nil, nil, err
	}
	m.sw = j.Switch
	return m, j, nil
}

// meshExec runs a built job, recording rank 0's phase boundaries as spans.
func meshExec(e *env, m *meshRun, j *cluster.ShardedSim, parent int32) error {
	id := e.span("cluster.ShardedSim.Run", parent)
	m.host[0] = time.Now()
	err := j.Run(m.main)
	m.wall = time.Since(m.host[0])
	e.endSpan(id)
	if err == nil && len(m.faults) == 0 {
		names := [4]string{"lapi.AddressInit", "pattern.uniform", "pattern.hotspot", "pattern.allreduce"}
		for i, name := range names {
			e.recordSpan(name, id, m.host[i], m.host[i+1])
		}
	}
	return err
}

// checkHotspot: rank 0's link carries every hot-spot put, so the pattern
// takes at least (N-1)·rounds times one put's wire time.
func checkHotspot(m *meshRun, lcfg lapi.Config, scfg switchnet.Config) error {
	wire := time.Duration(float64(lcfg.HeaderBytes+meshSlot) / scfg.Bandwidth * float64(time.Second))
	floor := time.Duration(m.plan.n-1) * meshRounds * wire
	if got := m.virtual(1); got < floor {
		return fmt.Errorf("hotspot: %v virtual, below the %v rank-0 link floor", got, floor)
	}
	return nil
}

// runMesh runs the job on one sub-engine: RunEpochs and ResolveSpine do
// the same work as on several, but the job's time does not hinge on two
// CPUs reaching every barrier together, which CPU steal makes swing by a
// third from run to run. The traced run adds the nproc-shard job and the
// speedup between the two.
func runMesh(e *env) error {
	plan := newMeshPlan(e.seed, meshTasks)
	return e.rounds(func(r int) error {
		_, err := meshRound(e, plan, 1)
		return err
	})
}

// meshRound sets up one job (its build is a set-up) and measures running
// it as one round.
func meshRound(e *env, plan *meshPlan, shards int) (*meshRun, error) {
	root := e.span("mesh.round", -1)
	defer e.endSpan(root)
	m, j, err := meshBuild(e, plan, shards, root)
	if err != nil {
		return nil, fmt.Errorf("building the %d-task cluster: %w", plan.n, err)
	}
	e.setups = append(e.setups, m.build.Seconds())
	err = e.measure(func() error { return meshExec(e, m, j, root) })
	e.attempted += plan.puts()
	if err != nil {
		e.failed += plan.puts()
		e.problem("mesh1k job: %v", err)
		return m, nil
	}
	for _, s := range m.faults {
		e.problem("%s", s)
	}
	e.check(checkHotspot(m, lapi.DefaultConfig(), bench.Mesh1kConfig()))
	return m, nil
}

// meshLayers reads the fabric, LAPI, cluster and pattern numbers of one
// job.
func meshLayers(m *meshRun) map[string]metric {
	c := &m.sw.Counters
	packets := float64(c.Get(stats.PacketsSent))
	out := map[string]metric{
		"switchnet.packets":         {packets, "count"},
		"switchnet.acks":            {float64(c.Get(stats.AcksSent)), "count"},
		"switchnet.packet_ns":       {float64(m.wall.Nanoseconds()) / packets, "ns"},
		"switchnet.interior_claims": {float64(c.Get(stats.SpineRequests)), "count"},
		"lapi.addrinit_1k_s":        {m.host[1].Sub(m.host[0]).Seconds(), "s"},
		"cluster.build_1k_s":        {m.build.Seconds(), "s"},
	}
	for k, name := range meshPatterns {
		out["mesh1k."+name+"_s"] = metric{m.patternSeconds(k), "s"}
	}
	return out
}

// epochLayers reads the epoch loop's counters of one job.
func epochLayers(m *meshRun) map[string]metric {
	c := &m.sw.Counters
	epochs := float64(c.Get(stats.EpochBarriers))
	busy := 0.0
	for i := 0; i < m.shards; i++ {
		busy += float64(c.Get(stats.ShardEpochs(i)))
	}
	return map[string]metric{
		"parallel.epochs":            {epochs, "count"},
		"parallel.epoch_us":          {micros(m.wall) / epochs, "us"},
		"parallel.imports_per_epoch": {float64(c.Get(stats.EpochImports)) / epochs, "count"},
		"parallel.shard_busy_frac":   {busy / (epochs * float64(m.shards)), "frac"},
	}
}
