package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"golapi/internal/bench"
	"golapi/internal/lapi"
	"golapi/internal/switchnet"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// modelPaperOut builds a round that satisfies every paper check, from the
// same cost model the checks use.
func modelPaperOut(lcfg lapi.Config, scfg switchnet.Config) *paperOut {
	wire := func(b int) time.Duration { return time.Duration(float64(b) / scfg.Bandwidth * float64(time.Second)) }
	cp := time.Duration(4 / lcfg.MemcpyBandwidth * float64(time.Second))
	o := &paperOut{}
	o.t2 = bench.Table2{
		LAPIPolling:     lcfg.OpOverhead + cp + lcfg.SendOverhead + wire(lcfg.HeaderBytes+4) + scfg.WireLatency + lcfg.RecvOverhead,
		MPIPolling:      50 * time.Microsecond,
		LAPIPollingRT:   60 * time.Microsecond,
		MPIPollingRT:    90 * time.Microsecond,
		LAPIInterruptRT: 90 * time.Microsecond,
		MPLInterruptRT:  200 * time.Microsecond,
	}
	o.pipe = bench.Pipeline{Put: lcfg.OpOverhead + cp + lcfg.SendOverhead, Get: lcfg.OpOverhead + lcfg.GetExtra + lcfg.SendOverhead}
	asym := float64(scfg.PacketBytes-12) / (float64(scfg.PacketBytes) / scfg.Bandwidth) / 1e6
	o.fig2 = []bench.BandwidthPoint{
		{Size: 1024, LAPI: asym * 0.6, MPIDefault: asym * 0.2},
		{Size: 8192, LAPI: asym * 0.9, MPIDefault: asym * 0.6},
		{Size: 2 << 20, LAPI: asym, MPIDefault: asym},
	}
	o.gaLat = bench.GALatency{LAPIGet: 90 * time.Microsecond, LAPIPut: 50 * time.Microsecond, MPLGet: 220 * time.Microsecond, MPLPut: 55 * time.Microsecond}
	o.app = bench.AppResult{LAPITime: time.Second, MPLTime: 2 * time.Second}
	return o
}

func TestPaperChecksCanFail(t *testing.T) {
	lcfg, scfg := lapi.DefaultConfig(), switchnet.DefaultConfig()
	if errs := checkPaper(modelPaperOut(lcfg, scfg), lcfg, scfg); len(errs) != 0 {
		t.Fatalf("model round fails its checks: %v", errs)
	}
	cases := []struct {
		name, want string
		break_     func(o *paperOut)
	}{
		{"one-way latency off the model", "one-way", func(o *paperOut) { o.t2.LAPIPolling += time.Microsecond }},
		{"pipeline put off the model", "pipeline: Put", func(o *paperOut) { o.pipe.Put -= time.Microsecond }},
		{"pipeline get off the model", "pipeline: Get", func(o *paperOut) { o.pipe.Get += time.Microsecond }},
		{"fig2 tail below the asymptote", "asymptote", func(o *paperOut) { o.fig2[2].LAPI *= 0.96 }},
		{"LAPI half-peak not below MPI's", "half-peak", func(o *paperOut) { o.fig2[0].MPIDefault, o.fig2[1].MPIDefault = o.fig2[0].LAPI, o.fig2[1].LAPI }},
		{"LAPI not below MPI", "not below MPI", func(o *paperOut) { o.t2.MPIPollingRT = o.t2.LAPIPollingRT }},
		{"interrupt not below rcvncall", "rcvncall", func(o *paperOut) { o.t2.MPLInterruptRT = o.t2.LAPIInterruptRT }},
		{"polling not below interrupt", "rcvncall", func(o *paperOut) { o.t2.LAPIInterruptRT = o.t2.LAPIPollingRT }},
		{"GA over LAPI not faster", "ga:", func(o *paperOut) { o.gaLat.LAPIPut = o.gaLat.MPLPut }},
		{"app over LAPI not faster", "app:", func(o *paperOut) { o.app.MPLTime = o.app.LAPITime }},
	}
	for _, c := range cases {
		o := modelPaperOut(lcfg, scfg)
		c.break_(o)
		errs := checkPaper(o, lcfg, scfg)
		if len(errs) == 0 || !strings.Contains(errs[0].Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, errs, c.want)
		}
	}
}

func TestMeshChecksCanFail(t *testing.T) {
	const n = 16
	p := newMeshPlan(7, n)
	// A rank's slots as the uniform pattern should leave them.
	self := int(p.targets[0])
	got := make([]byte, n*meshSlot)
	for _, src := range p.landed[self] {
		copy(got[int(src)*meshSlot:], p.payload[0][src])
	}
	if err := p.checkUniform(self, got); err != nil {
		t.Fatalf("correct slots rejected: %v", err)
	}
	got[len(got)-1] ^= 1 // a stray byte in an untargeted or targeted slot
	if p.checkUniform(self, got) == nil {
		t.Error("uniform check accepted a corrupted slot")
	}
	got[len(got)-1] ^= 1
	copy(got[int(p.landed[self][0])*meshSlot:], make([]byte, meshSlot)) // a lost put
	if p.checkUniform(self, got) == nil {
		t.Error("uniform check accepted a missing put")
	}

	hot := make([]byte, n*meshSlot)
	for src := 1; src < n; src++ {
		copy(hot[src*meshSlot:], p.payload[1][src])
	}
	if err := p.checkHotspotSlots(hot); err != nil {
		t.Fatalf("correct hot-spot slots rejected: %v", err)
	}
	copy(hot[3*meshSlot:], p.payload[1][4])
	if p.checkHotspotSlots(hot) == nil {
		t.Error("hot-spot check accepted another rank's bytes")
	}

	val := append([]byte(nil), p.fold...)
	if err := p.checkFold(0, val); err != nil {
		t.Fatalf("correct fold rejected: %v", err)
	}
	val[5] ^= 0x80
	if p.checkFold(0, val) == nil {
		t.Error("allreduce check accepted a wrong fold")
	}

	// The hot-spot floor and the shard-count identity, on recorded times.
	m := &meshRun{plan: p}
	for k := range m.start {
		m.start[k] = make([]time.Duration, n)
		m.end[k] = make([]time.Duration, n)
		for r := range m.end[k] {
			m.end[k][r] = time.Second
		}
	}
	if err := checkHotspot(m, lapi.DefaultConfig(), switchnet.DefaultConfig()); err != nil {
		t.Fatalf("a one-second hot spot is below the floor: %v", err)
	}
	for r := range m.end[1] {
		m.end[1][r] = time.Nanosecond
	}
	if checkHotspot(m, lapi.DefaultConfig(), switchnet.DefaultConfig()) == nil {
		t.Error("hot-spot floor accepted a 1 ns pattern")
	}
	other := &meshRun{plan: p, start: m.start, end: m.end}
	if err := sameVirtualTimes(m, other); err != nil {
		t.Fatalf("identical times rejected: %v", err)
	}
	other.end = [3][]time.Duration{m.end[0], m.end[1], append([]time.Duration(nil), m.end[2]...)}
	other.end[2][n-1]++
	if sameVirtualTimes(m, other) == nil {
		t.Error("shard identity accepted a moved virtual instant")
	}
}

// TestMeshJob runs the mesh checks on a real job small enough for a test.
func TestMeshJob(t *testing.T) {
	e := newEnv(3, 0)
	defer e.heap.close()
	p := newMeshPlan(3, 64)
	m, err := meshRound(e, p, 2)
	if err != nil || m == nil {
		t.Fatal(err)
	}
	if len(e.problems) != 0 {
		t.Fatalf("checks failed on a correct job: %v", e.problems)
	}
	one, err := meshRound(e, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameVirtualTimes(m, one); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayChecksCanFail(t *testing.T) {
	if checkReadIncs([]int64{2, 0, 1}, 0) != nil {
		t.Fatal("0..2 rejected")
	}
	if checkReadIncs([]int64{0, 2, 3}, 0) == nil {
		t.Error("a gap in the read-inc values was accepted")
	}
	if checkReadIncs([]int64{0, 1, 1}, 1) == nil {
		t.Error("a repeated read-inc value was accepted")
	}
	if len(closeChecks(10, 10, 0)) != 0 {
		t.Fatal("a clean close rejected")
	}
	if len(closeChecks(9, 10, 0)) == 0 {
		t.Error("more answers than the mesh served was accepted")
	}
	if len(closeChecks(10, 10, 1)) == 0 {
		t.Error("a held frame buffer after Close was accepted")
	}

	// A live gateway: every Get is checked against the session's shadow,
	// and every saturation Get against the fill pattern.
	g, err := gwSetup(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	s := g.sess[0]
	for _, row := range s.shadow {
		for i := range row {
			row[i] = math.Pi // this session never wrote pi
		}
	}
	for i := 0; i < 50 && len(s.faults) == 0; i++ {
		s.do(g)
	}
	if len(s.faults) == 0 || !strings.Contains(s.faults[0], "this session wrote") {
		t.Errorf("shadow check missed a wrong Get: %v", s.faults)
	}
	s.faults = nil

	g.seed++ // the fill on the gateway no longer matches what Gets expect
	e := newEnv(11, 0)
	defer e.heap.close()
	g.saturate(e, 0)
	found := false
	for _, p := range e.problems {
		found = found || strings.Contains(p, "get row")
	}
	if !found {
		t.Errorf("saturation Get check missed a wrong answer: %v", e.problems)
	}
}

// TestOpenLoopAccounting drives a light phase and a pipelined burst and
// checks that every request is accounted for and answered.
func TestOpenLoopAccounting(t *testing.T) {
	g, err := gwSetup(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(5, 0)
	defer e.heap.close()
	lat, _ := g.phase(e, lightRate, -1)
	want := int64(lightRate * phaseSpan.Seconds())
	if e.attempted != want || e.failed != 0 || int64(len(lat)) != want {
		t.Fatalf("attempted %d failed %d latencies %d, want %d/0/%d", e.attempted, e.failed, len(lat), want, want)
	}
	if took := g.burst(e, 0); took <= 0 {
		t.Errorf("burst took %v", took)
	}
	want += int64(len(g.sess) * burstRequests)
	if e.attempted != want || e.failed != 0 {
		t.Fatalf("after the burst: attempted %d failed %d, want %d/0", e.attempted, e.failed, want)
	}
	for _, err := range g.close() {
		t.Error(err)
	}
	if g.srv.MeshServed() < want {
		t.Errorf("mesh served %d requests, want at least %d", g.srv.MeshServed(), want)
	}
}
