package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"golapi/internal/gateway"
	"golapi/internal/gateway/client"
	"golapi/internal/gateway/proto"
)

// The gateway workloads: an in-process lapigate with its default config
// (2-rank TCP mesh, window 32), driven by up to two client sessions with a
// 40/40/20 put/get/read-inc mix on 128-byte row segments. Session i owns
// the rows r with r % sessions == i, so its own shadow of those rows
// predicts every Get.
const (
	gwRows = 64
	gwCols = 256
	gwSeg  = 16 // float64s per segment: 128 bytes

	// Offered rates, all sessions together. Fixed in req/s rather than
	// derived from a measured capacity, so a faster program shows as lower
	// latency at the same load. Two synchronous closed-loop sessions
	// sustain 37-42k req/s on a 2-CPU host: these are about a tenth and a
	// third of that. The
	// gateway workload runs at lightRate; heavyRate only in the traced
	// run's reference pass, because on a host whose CPU is stolen its
	// latency swings too far from run to run to bound.
	lightRate = 4000
	heavyRate = 14000
	// phaseSpan is the schedule length of one open-loop phase.
	phaseSpan = time.Second

	// burstRequests is each session's batch in the burst, a fixed request
	// count whose host time is the gateway's wall_s. burstDepth requests
	// in flight per session stay clear of the credit race (see saturate):
	// the gateway counts at most one more than the client has in flight
	// against a window of 32.
	burstRequests = 10000
	burstDepth    = 8

	// satBatch is each saturation session's batch. A session the gateway
	// cuts off fails its whole batch.
	satBatch = 50000

	// readDeadline bounds every read a client makes.
	readDeadline = 2 * time.Second

	warmupRequests = 200 // per session, closed loop, during set-up
)

// gwSession is one synchronous client session of the open-loop phases.
type gwSession struct {
	idx, of int
	conn    *client.Conn
	broken  bool // cut off by a deadline; redialed before the next round
	g       *rng
	shadow  [][]float64 // [row/of][col], this session's rows only
	dirty   map[[2]int]bool
	vals    []float64
	out     []float64
	ts      syscall.Timespec

	// inflight is the start of the request in progress (unix ns, 0 when
	// idle); the phase's watchdog closes the connection when a response is
	// later than readDeadline.
	inflight atomic.Int64

	lat, late     []float64 // µs, this phase
	failed        int64
	answered      int64
	incs          []int64
	uncertainIncs int
	faults        []string
}

// gw is one gateway with its client sessions.
type gw struct {
	srv                      *gateway.Server
	sess                     []*gwSession
	arr, ctr, satArr, satCtr uint32
	seed                     uint64
	answered                 int64     // responses received outside sessions
	pipeIncs                 []int64   // read-inc values of the pipelined sessions
	cut                      int       // pipelined sessions cut off
	cutAfter                 []float64 // answers each cut session got first
	satRPS                   float64
}

func (s *gwSession) fail(format string, args ...any) {
	if len(s.faults) < maxProblems {
		s.faults = append(s.faults, fmt.Sprintf(format, args...))
	}
}

func (g *gw) dial(s *gwSession) error {
	c, err := client.Dial(g.srv.Addr())
	if err != nil {
		return err
	}
	s.conn, s.broken = c, false
	s.answered++ // Hello
	return nil
}

// gwSetup brings a gateway up: mesh, sessions, objects, the saturation
// array's fill, and a closed-loop warm-up.
func gwSetup(seed uint64, sessions int) (*gw, error) {
	srv, err := gateway.New(gateway.DefaultConfig())
	if err != nil {
		return nil, err
	}
	g := &gw{srv: srv, seed: seed}
	for i := 0; i < sessions; i++ {
		s := &gwSession{
			idx: i, of: sessions,
			g:     newRNG(seed, 0x33, uint64(i)),
			dirty: map[[2]int]bool{},
			vals:  make([]float64, gwSeg),
			out:   make([]float64, gwSeg),
		}
		for r := i; r < gwRows; r += sessions {
			s.shadow = append(s.shadow, make([]float64, gwCols))
		}
		g.sess = append(g.sess, s)
		if err := g.dial(s); err != nil {
			g.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
	}
	c := g.sess[0].conn
	for _, o := range []struct {
		h       *uint32
		name    string
		counter bool
	}{{&g.arr, "bench.A", false}, {&g.ctr, "bench.n", true}, {&g.satArr, "bench.S", false}, {&g.satCtr, "bench.sn", true}} {
		var st proto.Status
		if o.counter {
			*o.h, st, err = c.CreateCounter(o.name)
		} else {
			*o.h, st, err = c.CreateArray(o.name, gwRows, gwCols)
		}
		if err == nil && st != proto.StatusOK {
			err = fmt.Errorf("status %v", st)
		}
		if err != nil {
			g.close()
			return nil, fmt.Errorf("create %s: %w", o.name, err)
		}
		g.answered++
	}
	vals := make([]float64, gwSeg)
	for row := 0; row < gwRows; row++ {
		for col := 0; col < gwCols; col += gwSeg {
			satFill(seed, row, col, vals)
			if st, err := c.Put(g.satArr, row, col, vals); err != nil || st != proto.StatusOK {
				g.close()
				return nil, fmt.Errorf("filling bench.S: %v %v", st, err)
			}
			g.answered++
		}
	}
	for _, s := range g.sess {
		for i := 0; i < warmupRequests; i++ {
			if _, ok := s.do(g); !ok {
				g.close()
				return nil, fmt.Errorf("warm-up: session %d failed: %v", s.idx, s.faults)
			}
		}
	}
	return g, nil
}

// satFill is the saturation array's content: every put writes it, so a
// Get has one right answer whichever puts of a cut session took effect.
func satFill(seed uint64, row, col int, vals []float64) {
	for i := range vals {
		vals[i] = float64(mix(seed, 0x44, uint64(row), uint64(col+i)) >> 11)
	}
}

var gwOpNames = [3]string{"client.Put", "client.Get", "client.ReadInc"}

// do sends one request of the mix and checks its answer. It returns the
// call's name and whether it succeeded. Inputs are drawn before the call,
// so they depend on the seed alone.
func (s *gwSession) do(g *gw) (string, bool) {
	kind := s.g.intn(10)
	row := s.idx + s.of*s.g.intn(len(s.shadow))
	col := gwSeg * s.g.intn(gwCols/gwSeg)
	seg := [2]int{row, col}
	shadow := s.shadow[row/s.of][col : col+gwSeg]
	switch {
	case kind < 4:
		for i := range s.vals {
			s.vals[i] = float64(s.g.next() >> 11)
		}
		st, err := s.conn.Put(g.arr, row, col, s.vals)
		if err != nil || st != proto.StatusOK {
			s.dirty[seg] = true // may or may not have landed
			s.fail("put row %d col %d: %v %v", row, col, st, err)
			return gwOpNames[0], false
		}
		copy(shadow, s.vals)
		delete(s.dirty, seg)
		s.answered++
		return gwOpNames[0], true
	case kind < 8:
		st, err := s.conn.Get(g.arr, row, col, s.out)
		if err != nil || st != proto.StatusOK {
			s.fail("get row %d col %d: %v %v", row, col, st, err)
			return gwOpNames[1], false
		}
		s.answered++
		if !s.dirty[seg] {
			for i := range s.out {
				if s.out[i] != shadow[i] {
					s.fail("get row %d col %d: element %d is %v, this session wrote %v", row, col+i, i, s.out[i], shadow[i])
					break
				}
			}
		}
		return gwOpNames[1], true
	default:
		v, st, err := s.conn.ReadInc(g.ctr, 1)
		if err != nil || st != proto.StatusOK {
			s.uncertainIncs++
			s.fail("read-inc: %v %v", st, err)
			return gwOpNames[2], false
		}
		s.answered++
		s.incs = append(s.incs, v)
		return gwOpNames[2], true
	}
}

// sleepUntil blocks the goroutine's thread in nanosleep: the runtime's
// own timers wake about a millisecond late, too coarse for these periods.
func (s *gwSession) sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		s.ts = syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&s.ts, nil) // EINTR (a runtime signal) only cuts the sleep short
	}
}

// openLoop sends n requests on a fixed schedule, one period apart from
// start. A request's latency runs from when it was due, or from when the
// generator woke if its timer overshot, to its response: a wait for the
// session's previous request counts, the generator's own lateness does not.
func (s *gwSession) openLoop(e *env, g *gw, start time.Time, period time.Duration, n int, parent int32) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		begin := due
		if time.Now().Before(due) {
			s.sleepUntil(due)
			begin = time.Now()
			s.late = append(s.late, micros(begin.Sub(due)))
		}
		if s.broken {
			s.failed++
			continue
		}
		s.inflight.Store(time.Now().UnixNano())
		name, ok := s.do(g)
		end := time.Now()
		s.inflight.Store(0)
		e.recordSpan(name, parent, begin, end)
		if !ok {
			s.failed++
			s.broken = true
			continue
		}
		s.lat = append(s.lat, micros(end.Sub(begin)))
	}
}

// phase runs one open-loop phase at rate req/s across all sessions and
// folds its outcomes into e. It returns the latencies and generator
// lateness (µs) of this phase.
func (g *gw) phase(e *env, rate int, parent int32) (lat, late []float64) {
	ns := len(g.sess)
	n := int(float64(rate)*phaseSpan.Seconds()) / ns
	period := time.Duration(float64(ns) / float64(rate) * float64(time.Second))
	for _, s := range g.sess {
		if s.broken {
			if err := g.dial(s); err != nil {
				s.fail("redial: %v", err)
			}
		}
		s.lat, s.late, s.failed = make([]float64, 0, n), make([]float64, 0, n), 0
	}
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		g.watchdog(stop)
	}()
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for _, s := range g.sess {
		wg.Add(1)
		go func(s *gwSession) {
			defer wg.Done()
			s.openLoop(e, g, start.Add(time.Duration(s.idx)*period/time.Duration(ns)), period, n, parent)
		}(s)
	}
	wg.Wait()
	close(stop)
	watch.Wait()
	for _, s := range g.sess {
		e.attempted += int64(n)
		e.failed += s.failed
		lat = append(lat, s.lat...)
		late = append(late, s.late...)
	}
	return lat, late
}

// watchdog closes a session whose response is later than readDeadline,
// which fails the blocked read: client.Conn takes no deadline itself.
func (g *gw) watchdog(stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			for _, s := range g.sess {
				if since := s.inflight.Load(); since != 0 && now.UnixNano()-since > readDeadline.Nanoseconds() {
					s.conn.Close()
				}
			}
		}
	}
}

// burst runs burstRequests per session through raw pipelined sessions,
// burstDepth in flight each, and returns how long they took.
func (g *gw) burst(e *env, round int) time.Duration {
	took, _ := g.pipelined(e, newRNG(g.seed, 0x66, uint64(round)), burstRequests, burstDepth)
	return took
}

// saturate runs the saturation phase: every session keeps its whole
// granted window in flight and sends again as each response arrives.
// internal/gateway/session.go returns a credit only after the response's
// write returns, so such a client overruns the window by one and the
// gateway cuts the session off.
func (g *gw) saturate(e *env, round int) {
	took, nCut := g.pipelined(e, newRNG(g.seed, 0x55, uint64(round)), satBatch, math.MaxInt)
	if nCut == 0 {
		g.satRPS = float64(len(g.sess)*satBatch) / took.Seconds()
	}
}

// pipelined runs one raw pipelined session per client session, each
// sending batch requests with at most depth (or its granted window) in
// flight. It returns the phase's host time and how many sessions the
// gateway cut off; a cut session fails its whole batch. The read-inc
// values of every pipelined phase on this gateway must stay distinct, and
// be exactly 0..M-1 while no session was cut: a cut session's read-incs
// in flight may have taken values.
func (g *gw) pipelined(e *env, r *rng, batch, depth int) (took time.Duration, nCut int) {
	ns := len(g.sess)
	answered := make([]int64, ns)
	cut := make([]bool, ns)
	faults := make([][]string, ns)
	incs := make([][]int64, ns)
	seeds := make([]uint64, ns)
	for i := range seeds {
		seeds[i] = r.next()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < ns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answered[i], cut[i], incs[i], faults[i] = pipeSession(g, i, ns, newRNG(seeds[i]), batch, depth)
		}(i)
	}
	wg.Wait()
	took = time.Since(start)
	for i := 0; i < ns; i++ {
		g.pipeIncs = append(g.pipeIncs, incs[i]...)
		e.attempted += int64(batch)
		g.answered += answered[i]
		if cut[i] {
			e.failed += int64(batch)
			g.cut++
			g.cutAfter = append(g.cutAfter, float64(answered[i]))
			nCut++
		}
		for _, s := range faults[i] {
			e.problem("pipelined session %d: %s", i, s)
		}
	}
	if err := checkReadIncs(g.pipeIncs, g.cut); err != nil {
		e.problem("pipelined sessions: %v", err)
	}
	// The gateway tears a cut session down on its own; wait for that so
	// the next phase starts from the same state.
	deadline := time.Now().Add(readDeadline)
	for g.srv.Sessions() > int64(len(g.sess)) {
		if time.Now().After(deadline) {
			e.problem("gateway still holds %d sessions %v after a pipelined phase", g.srv.Sessions(), readDeadline)
			break
		}
		time.Sleep(time.Millisecond)
	}
	return took, nCut
}

// pipeSession is one pipelined session on a raw connection: batch
// requests, at most depth or the granted window in flight. It returns the
// responses it received, whether the gateway cut it off before its batch
// was answered, the values its read-incs returned, and any wrong answers.
func pipeSession(g *gw, idx, of int, r *rng, batch, depth int) (answered int64, cut bool, incs []int64, faults []string) {
	nc, err := net.DialTimeout("tcp", g.srv.Addr(), readDeadline)
	if err != nil {
		return 0, true, nil, nil
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	type sent struct {
		op       uint8
		seq      uint32
		row, col int
	}
	var (
		wbuf    [proto.HeaderSize + gwSeg*8]byte
		rbuf    [proto.HeaderSize + gwSeg*8]byte
		vals    = make([]float64, gwSeg)
		seq     uint32
		queue   []sent
		nSent   int
		nAnswer int
	)
	send := func(h proto.ReqHeader, payload []byte) error {
		seq++
		h.Seq, h.Plen = seq, uint32(len(payload))
		proto.PutReqHeader(wbuf[:], &h)
		copy(wbuf[proto.HeaderSize:], payload)
		_, err := nc.Write(wbuf[:proto.HeaderSize+len(payload)])
		return err
	}
	recv := func() (proto.RespHeader, []byte, error) {
		if err := nc.SetReadDeadline(time.Now().Add(readDeadline)); err != nil {
			return proto.RespHeader{}, nil, err
		}
		if _, err := io.ReadFull(br, rbuf[:proto.HeaderSize]); err != nil {
			return proto.RespHeader{}, nil, err
		}
		rh, err := proto.ParseRespHeader(rbuf[:proto.HeaderSize])
		if err != nil {
			return rh, nil, err
		}
		if int(rh.Plen) > len(rbuf)-proto.HeaderSize {
			return rh, nil, fmt.Errorf("response payload %d bytes", rh.Plen)
		}
		p := rbuf[proto.HeaderSize : proto.HeaderSize+int(rh.Plen)]
		_, err = io.ReadFull(br, p)
		return rh, p, err
	}

	if err := send(proto.ReqHeader{Op: proto.OpHello}, nil); err != nil {
		return 0, true, nil, nil
	}
	rh, _, err := recv()
	if err != nil || rh.Status != proto.StatusOK {
		return 0, true, nil, nil
	}
	answered++
	inFlight := min(int(rh.Credits), depth)

	next := func() error {
		kind := r.intn(10)
		row := idx + of*r.intn(gwRows/of)
		col := gwSeg * r.intn(gwCols/gwSeg)
		h := proto.ReqHeader{Row: uint32(row), Col: uint32(col), Count: gwSeg}
		var payload []byte
		switch {
		case kind < 4:
			h.Op, h.Handle = proto.OpPut, g.satArr
			satFill(g.seed, row, col, vals)
			payload = wbuf[proto.HeaderSize:]
			for i, v := range vals {
				binary.BigEndian.PutUint64(payload[i*8:], math.Float64bits(v))
			}
		case kind < 8:
			h.Op, h.Handle = proto.OpGet, g.satArr
		default:
			h = proto.ReqHeader{Op: proto.OpReadInc, Handle: g.satCtr}
			var d [8]byte
			binary.BigEndian.PutUint64(d[:], 1)
			payload = d[:]
		}
		nSent++
		err := send(h, payload)
		queue = append(queue, sent{h.Op, seq, row, col})
		return err
	}
	for nSent < inFlight && nSent < batch {
		if err := next(); err != nil {
			return answered, true, incs, faults
		}
	}
	for nAnswer < batch {
		rh, p, err := recv()
		if err != nil {
			return answered, true, incs, faults
		}
		if rh.Status == proto.StatusProtocol {
			return answered, true, incs, faults // the gateway's parting frame before it cuts the session
		}
		want := queue[0]
		queue = queue[1:]
		nAnswer++
		if rh.Status != proto.StatusOK || rh.Op != want.op || rh.Seq != want.seq {
			faults = append(faults, fmt.Sprintf("response op %d seq %d status %v for op %d seq %d", rh.Op, rh.Seq, rh.Status, want.op, want.seq))
			return answered, true, incs, faults
		}
		answered++
		if want.op == proto.OpReadInc {
			incs = append(incs, int64(rh.Value))
		}
		if want.op == proto.OpGet {
			satFill(g.seed, want.row, want.col, vals)
			for i, v := range vals {
				if got := math.Float64frombits(binary.BigEndian.Uint64(p[i*8:])); got != v && len(faults) < maxProblems {
					faults = append(faults, fmt.Sprintf("get row %d col %d: %v, want %v", want.row, want.col+i, got, v))
					break
				}
			}
		}
		if nSent < batch {
			if err := next(); err != nil {
				return answered, true, incs, faults
			}
		}
	}
	return answered, false, incs, faults
}

// close shuts the gateway down. It also returns the output checks the
// closed gateway must pass.
func (g *gw) close() []error {
	for _, s := range g.sess {
		if s.conn != nil {
			s.conn.Close()
		}
	}
	g.srv.Close()
	answered := g.answered
	var incs []int64
	uncertain := 0
	for _, s := range g.sess {
		answered += s.answered
		incs = append(incs, s.incs...)
		uncertain += s.uncertainIncs
	}
	errs := closeChecks(g.srv.MeshServed(), answered, g.srv.InflightFrames())
	if err := checkReadIncs(incs, uncertain); err != nil {
		errs = append(errs, err)
	}
	for _, s := range g.sess {
		for _, m := range s.faults {
			errs = append(errs, fmt.Errorf("session %d: %s", s.idx, m))
		}
	}
	return errs
}

// closeChecks: the mesh's own served count covers every answer a client
// received, and a closed gateway holds no frame buffers.
func closeChecks(served, answered, frames int64) []error {
	var errs []error
	if served < answered {
		errs = append(errs, fmt.Errorf("gateway: mesh served %d requests, clients received %d answers", served, answered))
	}
	if frames != 0 {
		errs = append(errs, fmt.Errorf("gateway: %d frame buffers still held after Close", frames))
	}
	return errs
}

// checkReadIncs: the values read-inc returned across every session are
// exactly 0..M-1. A read-inc whose answer was lost may have taken a value,
// so then only distinctness is required.
func checkReadIncs(incs []int64, uncertain int) error {
	v := append([]int64(nil), incs...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	for i, x := range v {
		if uncertain == 0 && x != int64(i) {
			return fmt.Errorf("read-inc: sorted value %d is %d; the %d values are not 0..%d", i, x, len(v), len(v)-1)
		}
		if i > 0 && x == v[i-1] {
			return fmt.Errorf("read-inc: value %d returned twice", x)
		}
	}
	return nil
}

// gwSessions stays within the run's processor count.
func gwSessions(e *env) int { return min(2, e.nproc) }

// runGateway measures rounds of the light open-loop phase and the
// pipelined burst, each followed by the saturation phase. Each round brings up its own gateway (a
// set-up) and closes and checks it afterwards: one gateway's loopback
// sockets and goroutine placement shift its latency for its whole life,
// so a fresh one per round keeps that out of the run's medians.
func runGateway(e *env) error {
	var sessions, cut int
	var cutAfter, satRPS []float64
	err := e.rounds(func(r int) error {
		var g *gw
		if err := e.timeSetup(func() (err error) {
			g, err = gwSetup(mix(e.seed, uint64(r)), gwSessions(e))
			return err
		}); err != nil {
			return fmt.Errorf("gateway set-up: %w", err)
		}
		root := e.span("gateway.round", -1)
		var took time.Duration
		_ = e.measure(func() error { // the phases count their failures per request
			id := e.span("gateway.phase", root)
			g.phase(e, lightRate, id)
			e.endSpan(id)
			id = e.span("gateway.burst", root)
			took = g.burst(e, r)
			e.endSpan(id)
			return nil
		})
		// The open-loop phase lasts its schedule whatever the program does,
		// so the round's wall time is the burst's.
		e.walls[len(e.walls)-1] = took.Seconds()

		id := e.span("gateway.saturate", root)
		g.saturate(e, r)
		e.endSpan(id)
		e.endSpan(root)
		sessions += len(g.sess)
		cut += g.cut
		cutAfter = append(cutAfter, g.cutAfter...)
		if g.satRPS > 0 {
			satRPS = append(satRPS, g.satRPS)
		}
		for _, err := range g.close() {
			e.check(err)
		}
		return nil
	})
	fmt.Printf("saturation: %d of %d sessions cut off, after %.0f/%.0f/%.0f answers (min/median/max)\n",
		cut, sessions, percentile(cutAfter, 0), median(cutAfter), percentile(cutAfter, 100))
	if len(satRPS) > 0 {
		fmt.Printf("saturation: %d phases completed, median %.0f req/s\n", len(satRPS), median(satRPS))
	}
	return err
}
