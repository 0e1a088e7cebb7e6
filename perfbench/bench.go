package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"retina"
	"retina/internal/aggregate"
	"retina/internal/core"
	"retina/internal/metrics"
)

// burstSize is the datapath batch every workload runs with (the
// runtime's default).
const burstSize = core.DefaultBurstSize

// bench is one invocation: a workload, its traffic, and the correctness
// checks accumulated over every repetition.
type bench struct {
	w      *workload
	t      *Traffic
	golden string // expected output digest; "" when the seed has none
	checks checks
	digest string // output digest of the first repetition
}

// checks counts correctness checks made and failed; the first few
// failures are kept for the report.
type checks struct {
	attempted, failed int
	msgs              []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// setupTimes are the control-plane calls of one set-up.
type setupTimes struct {
	build time.Duration   // NewDynamic
	adds  []time.Duration // each AddSubscription
	total time.Duration   // NewDynamic through the last AddSubscription
}

// setup builds a one-core runtime with default Config and subscribes the
// workload. Only NewDynamic and AddSubscription calls are timed.
func (b *bench) setup(profile, latency bool) (*retina.Runtime, []digest, setupTimes, error) {
	d := make([]digest, 4) // room for any workload's subscriptions
	defs := b.w.subs(d)
	d = d[:len(defs)]
	aggs := make([]*retina.AggregateSpec, len(defs))
	for i, def := range defs {
		if def.agg == "" {
			continue
		}
		spec, err := aggregate.ParseShorthand(def.agg)
		if err != nil {
			return nil, nil, setupTimes{}, err
		}
		aggs[i] = spec
	}
	cfg := retina.DefaultConfig()
	cfg.Cores = 1
	cfg.BurstSize = burstSize
	cfg.Profile = profile
	cfg.LatencyTracking = latency

	var st setupTimes
	t0 := metrics.NowNanos()
	rt, err := retina.NewDynamic(cfg)
	t1 := metrics.NowNanos()
	if err != nil {
		return nil, nil, st, fmt.Errorf("building runtime: %w", err)
	}
	st.build = time.Duration(t1 - t0)
	for i, def := range defs {
		s := metrics.NowNanos()
		if aggs[i] != nil {
			_, err = rt.AddSubscriptionWithAggregate(def.name, def.filter, def.sub, aggs[i])
		} else {
			_, err = rt.AddSubscription(def.name, def.filter, def.sub)
		}
		e := metrics.NowNanos()
		if err != nil {
			return nil, nil, st, fmt.Errorf("subscribing %s: %w", def.name, err)
		}
		st.adds = append(st.adds, time.Duration(e-s))
		t1 = e
	}
	st.total = time.Duration(t1 - t0)
	return rt, d, st, nil
}

// stateBytes is the connection state the runtime holds: per-connection
// table memory, bytes buffered under the overload budgets, and the
// table's bucket array (64 bytes per 8 slots, so the figure is never 0
// even when no connection is tracked). It walks the table, so only the
// goroutine that owns the core may call it.
func stateBytes(rt *retina.Runtime) uint64 {
	var n uint64
	for _, c := range rt.Cores() {
		n += c.Table().MemoryBytes() + uint64(c.Accountant().TotalUsed()) + uint64(c.Table().IndexStats().Slots)*8
	}
	return n
}

// concurrentStateBytes is stateBytes from counters that are safe to read
// while a core goroutine runs, for the online workload: live
// connections at the table's 320-byte base estimate instead of a walk.
func concurrentStateBytes(rt *retina.Runtime) uint64 {
	var n uint64
	for _, c := range rt.Cores() {
		ix := c.Table().IndexStats()
		n += uint64(ix.Live)*320 + uint64(c.Accountant().TotalUsed()) + uint64(ix.Slots)*8
	}
	return n
}

// offlineSource replays the arena into RunOffline. With sample set it
// samples connection state at every burst boundary, on the core's own
// goroutine.
type offlineSource struct {
	t         *Traffic
	rt        *retina.Runtime
	i         int
	sample    bool
	peakState uint64
}

func (s *offlineSource) Next() ([]byte, uint64, bool) {
	if s.i >= s.t.Len() {
		return nil, 0, false
	}
	if s.sample && s.i%burstSize == 0 {
		s.peakState = max(s.peakState, stateBytes(s.rt))
	}
	f, tick := s.t.Frame(s.i), s.t.Tick(s.i)
	s.i++
	return f, tick, true
}

// losslessSource feeds Runtime.Run without loss: before handing out a
// burst it waits until the ring has room for two bursts and the pool has
// spare buffers. Once it has had to wait it holds off until the ring is
// half empty, so the producer and the core do not take turns burst by
// burst. Waiting is timed; with a span log it also records the time
// between NextBurst calls, which is the NIC's DeliverBurst. With sample
// set it samples connection state and pool use once per burst.
type losslessSource struct {
	t         *Traffic
	rt        *retina.Runtime
	i         int
	sample    bool
	waitNs    int64
	peakState uint64
	peakInUse int

	log      *spanLog // nil when untraced
	parent   int32
	lastExit int64
}

// Next satisfies retina.Source; Runtime.Run calls NextBurst instead.
func (s *losslessSource) Next() ([]byte, uint64, bool) {
	var f [1][]byte
	var tk [1]uint64
	if s.NextBurst(f[:], tk[:]) == 0 {
		return nil, 0, false
	}
	return f[0], tk[0], true
}

func (s *losslessSource) NextBurst(frames [][]byte, ticks []uint64) int {
	if s.log != nil {
		now := metrics.NowNanos()
		if s.lastExit != 0 {
			s.log.add(spanDeliver, s.parent, s.lastExit, now)
		}
	}
	if s.i >= s.t.Len() {
		return 0
	}
	s.waitForRoom(len(frames))
	n := 0
	for n < len(frames) && s.i < s.t.Len() {
		frames[n], ticks[n] = s.t.Frame(s.i), s.t.Tick(s.i)
		n++
		s.i++
	}
	if s.sample {
		s.peakState = max(s.peakState, concurrentStateBytes(s.rt))
		s.peakInUse = max(s.peakInUse, s.rt.Pool().InUse())
	}
	if s.log != nil {
		s.lastExit = metrics.NowNanos()
	}
	return n
}

func (s *losslessSource) waitForRoom(burst int) {
	dev, pool := s.rt.NIC(), s.rt.Pool()
	used, capacity := dev.RingOccupancy(0)
	if used <= capacity-2*burst && pool.Available() >= 4*burst {
		return
	}
	t0 := metrics.NowNanos()
	for {
		runtime.Gosched()
		used, _ = dev.RingOccupancy(0)
		if used <= capacity/2 && pool.Available() >= 4*burst {
			break
		}
	}
	t1 := metrics.NowNanos()
	s.waitNs += t1 - t0
	if s.log != nil {
		s.log.add(spanWait, s.parent, t0, t1)
	}
}

// runResult is what one replay of the traffic produced.
type runResult struct {
	wall      time.Duration
	processed uint64
	filterOK  uint64 // frames passing the software filter
	loss      uint64 // NIC loss plus offered frames never processed
	peakState uint64
	waitNs    int64
}

// verify makes the correctness checks for one finished replay.
func (b *bench) verify(rt *retina.Runtime, d []digest, r runResult) {
	offered := uint64(b.t.Len())
	b.checks.check(r.processed == offered, "processed %d of %d offered frames", r.processed, offered)
	b.checks.check(r.loss == 0, "lost %d frames", r.loss)
	for _, c := range rt.Cores() {
		err := c.Table().CheckInvariants()
		b.checks.check(err == nil, "core %d conntrack invariants: %v", c.ID, err)
	}
	b.checks.check(rt.Pool().InUse() == 0, "%d mbufs still in use after the run", rt.Pool().InUse())
	dg, err := outputDigest(d, rt.Aggregates())
	b.checks.check(err == nil, "output digest: %v", err)
	if b.digest == "" {
		b.digest = dg
	}
	b.checks.check(dg == b.digest, "output digest %s differs from the first repetition's %s", dg, b.digest)
	if b.golden != "" {
		b.checks.check(dg == b.golden, "output digest %s, golden %s", dg, b.golden)
	}
}

// replay runs the traffic once through the workload's drive (RunOffline,
// or Runtime.Run fed by the lossless source). sample turns on
// connection-state sampling. The caller verifies the outputs once it has
// read its counters, so the checks' own cost stays out of them.
func (b *bench) replay(rt *retina.Runtime, sample bool) runResult {
	var r runResult
	if b.w.online {
		src := &losslessSource{t: b.t, rt: rt, sample: sample}
		start := metrics.NowNanos()
		st := rt.Run(src)
		r.wall = time.Duration(metrics.NowNanos() - start)
		r.peakState, r.waitNs = src.peakState, src.waitNs
		r.processed, r.filterOK = processed(st.Cores)
		r.loss = st.NIC.Loss()
	} else {
		src := &offlineSource{t: b.t, rt: rt, sample: sample}
		start := metrics.NowNanos()
		st := rt.RunOffline(src)
		r.wall = time.Duration(metrics.NowNanos() - start)
		r.peakState = src.peakState
		r.processed, r.filterOK = processed(st.Cores)
	}
	if off := uint64(b.t.Len()); r.processed < off {
		r.loss += off - r.processed
	}
	return r
}

func processed(cs []core.CoreStats) (n, passed uint64) {
	for _, c := range cs {
		n += c.Processed
		passed += c.Processed - c.FilterDropped
	}
	return n, passed
}

// e2eSample is one untraced repetition's end-to-end figures.
type e2eSample struct {
	pps, gbps, cpuNs, allocs, allocBytes, stateMB, setupS, loss float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure is one untraced repetition: set up, replay under the process
// CPU and allocation counters, then verify the outputs. Connection state is the same on
// every repetition of a seed, so only a repetition with sample set pays
// for sampling it (and reports it).
func (b *bench) measure(sample bool) (e2eSample, error) {
	runtime.GC()
	rt, d, st, err := b.setup(false, false)
	if err != nil {
		return e2eSample{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	r := b.replay(rt, sample)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	b.verify(rt, d, r)

	frames := float64(b.t.Len())
	secs := r.wall.Seconds()
	return e2eSample{
		pps:        frames / secs,
		gbps:       float64(b.t.WireBytes()) * 8 / secs / 1e9,
		cpuNs:      float64(cpu1-cpu0) / frames,
		allocs:     float64(m1.Mallocs-m0.Mallocs) / frames,
		allocBytes: float64(m1.TotalAlloc-m0.TotalAlloc) / frames,
		stateMB:    float64(r.peakState) / (1 << 20),
		setupS:     st.total.Seconds(),
		loss:       float64(r.loss) / frames,
	}, nil
}
