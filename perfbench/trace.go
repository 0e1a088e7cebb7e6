package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"retina"
	"retina/internal/core"
	"retina/internal/mbuf"
	"retina/internal/metrics"
)

// Span names: the benchmark's calls into the program's public API.
const (
	spanSetup   uint8 = iota // NewDynamic through the last AddSubscription
	spanBuild                // retina.NewDynamic
	spanAddSub               // Runtime.AddSubscription(WithAggregate)
	spanReplay               // the whole timed replay
	spanAlloc                // Pool.AllocData, one frame
	spanBurst                // Core.ProcessBurst, one burst
	spanFlush                // Core.Flush
	spanRun                  // Runtime.Run
	spanDeliver              // NIC.DeliverBurst: between two NextBurst calls
	spanWait                 // the lossless source waiting for room
)

var spanNames = [...]string{
	spanSetup:   "setup",
	spanBuild:   "retina.NewDynamic",
	spanAddSub:  "Runtime.AddSubscription",
	spanReplay:  "replay",
	spanAlloc:   "mbuf.Pool.AllocData",
	spanBurst:   "core.Core.ProcessBurst",
	spanFlush:   "core.Core.Flush",
	spanRun:     "retina.Runtime.Run",
	spanDeliver: "nic.NIC.DeliverBurst",
	spanWait:    "source.wait",
}

// span is one timed call: monotonic nanoseconds and the index of the
// enclosing span (-1 at the root). Fixed-size and pointer-free, so a
// million of them cost the garbage collector nothing.
type span struct {
	Name   uint8
	_      [3]byte
	Parent int32
	Start  int64
	End    int64
}

// spanLog keeps one traced repetition's spans in memory.
type spanLog struct{ spans []span }

func (l *spanLog) open(name uint8, parent int32) int32 {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: metrics.NowNanos()})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(i int32) { l.spans[i].End = metrics.NowNanos() }

func (l *spanLog) add(name uint8, parent int32, start, end int64) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: start, End: end})
}

// total sums the durations of every span with the given name.
func (l *spanLog) total(name uint8) (ns int64) {
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name {
			ns += s.End - s.Start
		}
	}
	return ns
}

func (l *spanLog) durations(name uint8) []int64 {
	var out []int64
	for i := range l.spans {
		if s := &l.spans[i]; s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as a little-endian binary file: the magic
// "PBSPANS1", the name count and each name (uint16 length + bytes), the
// span count, then one 24-byte record per span (name uint8, 3 pad bytes,
// parent int32, start int64, end int64).
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("PBSPANS1")
	binary.Write(w, binary.LittleEndian, uint32(len(spanNames)))
	for _, n := range spanNames {
		binary.Write(w, binary.LittleEndian, uint16(len(n)))
		w.WriteString(n)
	}
	binary.Write(w, binary.LittleEndian, uint64(len(l.spans)))
	if err := binary.Write(w, binary.LittleEndian, l.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// tracedSetup is setup with spans around NewDynamic and each
// AddSubscription, reconstructed from the timings setup takes.
func (b *bench) tracedSetup(log *spanLog, latency bool) (*retina.Runtime, []digest, error) {
	root := log.open(spanSetup, -1)
	rt, d, st, err := b.setup(true, latency)
	if err != nil {
		return nil, nil, err
	}
	log.close(root)
	start := log.spans[root].Start
	log.add(spanBuild, root, start, start+int64(st.build))
	at := start + int64(st.build)
	for _, a := range st.adds {
		log.add(spanAddSub, root, at, at+int64(a))
		at += int64(a)
	}
	return rt, d, nil
}

// tracedRep is one traced repetition's raw observations.
type tracedRep struct {
	rt        *retina.Runtime
	d         []digest
	res       runResult
	peakLive  int
	peakInUse int
	coreNs    int64 // time inside the core: ProcessBurst + Flush spans, or duty busy time online
	deliverNs int64
}

// tracedOffline replays the traffic with RunOffline's call sequence
// issued from here — AllocData per frame, ProcessBurst per burst, then
// Flush — with a span around each call.
func (b *bench) tracedOffline(log *spanLog) (tracedRep, error) {
	runtime.GC()
	rt, d, err := b.tracedSetup(log, false)
	if err != nil {
		return tracedRep{}, err
	}
	runtime.GC()
	c, pool := rt.Cores()[0], rt.Pool()
	var tr tracedRep
	batch := make([]*mbuf.Mbuf, 0, burstSize)
	burst := func(parent int32) {
		tr.peakInUse = max(tr.peakInUse, pool.InUse())
		s := metrics.NowNanos()
		c.ProcessBurst(batch)
		log.add(spanBurst, parent, s, metrics.NowNanos())
		tr.peakLive = max(tr.peakLive, c.Table().Len())
		batch = batch[:0]
	}
	rep := log.open(spanReplay, -1)
	for i := 0; i < b.t.Len(); i++ {
		s := metrics.NowNanos()
		m, err := pool.AllocData(b.t.Frame(i))
		log.add(spanAlloc, rep, s, metrics.NowNanos())
		if err != nil {
			continue
		}
		m.RxTick = b.t.Tick(i)
		batch = append(batch, m)
		if len(batch) == burstSize {
			burst(rep)
		}
	}
	if len(batch) > 0 {
		burst(rep)
	}
	fl := log.open(spanFlush, rep)
	c.Flush()
	log.close(fl)
	log.close(rep)

	tr.rt, tr.d = rt, d
	tr.res.wall = time.Duration(log.spans[rep].End - log.spans[rep].Start)
	st := c.Stats()
	tr.res.processed, tr.res.filterOK = processed([]core.CoreStats{st})
	if off := uint64(b.t.Len()); tr.res.processed < off {
		tr.res.loss = off - tr.res.processed
	}
	tr.coreNs = log.total(spanBurst) + log.total(spanFlush)
	return tr, nil
}

// tracedOnline runs Runtime.Run with the lossless source recording the
// DeliverBurst spans. Latency tracking is on so the core's busy time
// (its duty ledger) bounds the unattributed remainder.
func (b *bench) tracedOnline(log *spanLog) (tracedRep, error) {
	runtime.GC()
	rt, d, err := b.tracedSetup(log, true)
	if err != nil {
		return tracedRep{}, err
	}
	runtime.GC()
	run := log.open(spanRun, -1)
	src := &losslessSource{t: b.t, rt: rt, sample: true, log: log, parent: run}
	st := rt.Run(src)
	log.close(run)

	var tr tracedRep
	tr.rt, tr.d = rt, d
	tr.res.wall = time.Duration(log.spans[run].End - log.spans[run].Start)
	tr.res.processed, tr.res.filterOK = processed(st.Cores)
	tr.res.loss = st.NIC.Loss()
	if off := uint64(b.t.Len()); tr.res.processed < off {
		tr.res.loss += off - tr.res.processed
	}
	tr.res.waitNs = src.waitNs
	tr.peakInUse = src.peakInUse
	for _, c := range rt.Cores() {
		tr.coreNs += c.Duty().BusyNs()
	}
	tr.deliverNs = log.total(spanDeliver)
	return tr, nil
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics in report order.
var layerMetrics = []layerMetric{
	{"nic.deliver_ns_per_pkt", "ns"},
	{"nic.producer_wait_share", "ratio"},
	{"nic.rss_ns_per_pkt", "ns"},
	{"mbuf.alloc_ns_per_pkt", "ns"},
	{"mbuf.in_use_peak", "count"},
	{"layers.decode_ns_per_pkt", "ns"},
	{"filter.stage_ns_per_pkt", "ns"},
	{"filter.match_ns_per_pkt", "ns"},
	{"filter.allocs_per_eval", "allocs"},
	{"filter.pass_ratio", "ratio"},
	{"conntrack.stage_ns_per_pkt", "ns"},
	{"conntrack.stage_ns_per_call", "ns"},
	{"conntrack.creates_per_kpkt", "count"},
	{"conntrack.expired_per_kpkt", "count"},
	{"conntrack.live_peak", "count"},
	{"conntrack.max_probe", "count"},
	{"conntrack.rehashes", "count"},
	{"conntrack.op_ns", "ns"},
	{"reassembly.stage_ns_per_pkt", "ns"},
	{"reassembly.calls_per_kpkt", "count"},
	{"proto.stage_ns_per_pkt", "ns"},
	{"proto.calls_per_kpkt", "count"},
	{"proto.unidentified_ratio", "ratio"},
	{"proto.probe_rejects_per_kpkt", "count"},
	{"core.session_filter_ns_per_call", "ns"},
	{"core.callback_ns_per_call", "ns"},
	{"core.delivered_per_kpkt", "count"},
	{"core.unattributed_ns_per_pkt", "ns"},
	{"core.burst_p50_us", "us"},
	{"core.burst_p99_us", "us"},
	{"core.burst_samples", "count"},
	{"aggregate.events_per_pkt", "count"},
	{"aggregate.windows_sealed", "count"},
	{"aggregate.keys_tracked", "count"},
	{"aggregate.update_ns_per_event", "ns"},
	{"ctl.runtime_build_ms", "ms"},
	{"ctl.add_subscription_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"replay.disagreements", "count"},
}

// na marks a metric of a layer the workload bypasses.
var na = math.NaN()

// layerValues derives the per-layer metrics of one traced repetition
// from its spans and the program's public counters, plus the layer
// replays run on the same traffic.
func (b *bench) layerValues(log *spanLog, tr tracedRep, rp replayResult) map[string]float64 {
	v := map[string]float64{}
	frames := float64(b.t.Len())
	perPkt := func(ns int64) float64 { return float64(ns) / frames }
	perK := func(n uint64) float64 { return float64(n) / frames * 1000 }
	c := tr.rt.Cores()[0]
	ss := c.StageStats()
	stageNs := func(st core.Stage) int64 { return int64(ss.Nanos(st)) }
	stageCalls := func(st core.Stage) uint64 { return ss.Invocations(st) }
	perCall := func(st core.Stage) float64 {
		return ratio(float64(stageNs(st)), float64(stageCalls(st)))
	}
	// orNA reports x only where the layer did any work.
	orNA := func(work bool, x float64) float64 {
		if !work {
			return na
		}
		return x
	}
	cs := c.Stats()

	// NIC model and its producer: online only.
	if b.w.online {
		v["nic.deliver_ns_per_pkt"] = perPkt(tr.deliverNs)
		v["nic.producer_wait_share"] = float64(tr.res.waitNs) / float64(tr.res.wall)
		v["nic.rss_ns_per_pkt"] = rp.rssNs
		v["mbuf.alloc_ns_per_pkt"] = na // inside DeliverBurst's bulk allocation
		v["core.burst_p50_us"], v["core.burst_p99_us"], v["core.burst_samples"] = na, na, na
	} else {
		v["nic.deliver_ns_per_pkt"], v["nic.producer_wait_share"], v["nic.rss_ns_per_pkt"] = na, na, na
		v["mbuf.alloc_ns_per_pkt"] = perPkt(log.total(spanAlloc))
		d := log.durations(spanBurst)
		slices.Sort(d)
		v["core.burst_p50_us"] = float64(quantileInt(d, 0.50)) / 1000
		v["core.burst_p99_us"] = float64(quantileInt(d, 0.99)) / 1000
		v["core.burst_samples"] = float64(len(d))
	}
	v["mbuf.in_use_peak"] = float64(tr.peakInUse)

	v["layers.decode_ns_per_pkt"] = rp.decodeNs
	v["filter.stage_ns_per_pkt"] = perPkt(stageNs(core.StageSWFilter))
	v["filter.match_ns_per_pkt"] = rp.matchNs
	v["filter.allocs_per_eval"] = rp.allocsPerEval
	v["filter.pass_ratio"] = ratio(float64(tr.res.filterOK), float64(tr.res.processed))

	ct := stageCalls(core.StageConnTrack) > 0
	created, expired := c.Table().Stats()
	var exp uint64
	for _, e := range expired {
		exp += e
	}
	ix := c.Table().IndexStats()
	v["conntrack.stage_ns_per_pkt"] = orNA(ct, perPkt(stageNs(core.StageConnTrack)))
	v["conntrack.stage_ns_per_call"] = orNA(ct, perCall(core.StageConnTrack))
	v["conntrack.creates_per_kpkt"] = orNA(ct, perK(created))
	v["conntrack.expired_per_kpkt"] = orNA(ct, perK(exp))
	v["conntrack.live_peak"] = orNA(ct && !b.w.online, float64(tr.peakLive))
	v["conntrack.max_probe"] = orNA(ct, float64(ix.MaxProbe))
	v["conntrack.rehashes"] = orNA(ct, float64(ix.Rehashes))
	v["conntrack.op_ns"] = orNA(ct, rp.ctOpNs)

	re := stageCalls(core.StageReassembly) > 0
	v["reassembly.stage_ns_per_pkt"] = orNA(re, perPkt(stageNs(core.StageReassembly)))
	v["reassembly.calls_per_kpkt"] = orNA(re, perK(stageCalls(core.StageReassembly)))

	pr := stageCalls(core.StageParsing) > 0
	var rejects uint64
	for _, p := range c.ProtoStats() {
		rejects += p.ProbeRejects
	}
	v["proto.stage_ns_per_pkt"] = orNA(pr, perPkt(stageNs(core.StageParsing)))
	v["proto.calls_per_kpkt"] = orNA(pr, perK(stageCalls(core.StageParsing)))
	v["proto.unidentified_ratio"] = orNA(pr, ratio(float64(cs.ConnsUnidentified), float64(cs.ConnsCreated)))
	v["proto.probe_rejects_per_kpkt"] = orNA(pr, perK(rejects))

	v["core.session_filter_ns_per_call"] = orNA(stageCalls(core.StageSessionFilter) > 0, perCall(core.StageSessionFilter))
	v["core.callback_ns_per_call"] = orNA(stageCalls(core.StageCallback) > 0, perCall(core.StageCallback))
	v["core.delivered_per_kpkt"] = perK(cs.Delivered)
	var staged int64
	for _, st := range core.Stages() {
		staged += stageNs(st)
	}
	v["core.unattributed_ns_per_pkt"] = perPkt(tr.coreNs - staged)

	var events, sealed, keys float64
	reports := tr.rt.Aggregates()
	for _, r := range reports {
		events += float64(r.Totals.Events)
		sealed += float64(r.Totals.WindowsSealed)
		keys += float64(r.Totals.KeysTracked)
	}
	agg := len(reports) > 0
	v["aggregate.events_per_pkt"] = orNA(agg, events/frames)
	v["aggregate.windows_sealed"] = orNA(agg, sealed)
	v["aggregate.keys_tracked"] = orNA(agg, keys)
	v["aggregate.update_ns_per_event"] = orNA(agg, rp.aggNs)

	var adds int64
	var nAdds int
	var build int64
	for i := range log.spans {
		switch s := &log.spans[i]; s.Name {
		case spanBuild:
			build += s.End - s.Start
		case spanAddSub:
			adds += s.End - s.Start
			nAdds++
		}
	}
	v["ctl.runtime_build_ms"] = float64(build) / 1e6
	v["ctl.add_subscription_ms"] = ratio(float64(adds), float64(nAdds)) / 1e6
	return v
}

func quantileInt(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// agreement pairs a layer replay with the traced figure it backs.
type agreement struct {
	replay, traced string
	replayNs       float64
	tracedNs       float64
	// partOf: the replay covers only part of what the traced figure
	// times, so only a replay above twice the traced figure disagrees.
	partOf bool
}

func (a agreement) disagrees() bool {
	if math.IsNaN(a.replayNs) || math.IsNaN(a.tracedNs) || a.tracedNs <= 0 {
		return false
	}
	r := a.replayNs / a.tracedNs
	if a.partOf {
		return r > 2
	}
	return r > 2 || r < 0.5
}

// agreements lists each replay beside the traced stage split it backs.
func agreements(v map[string]float64) []agreement {
	return []agreement{
		{"layers.decode + filter.match", "filter.stage_ns_per_pkt",
			v["layers.decode_ns_per_pkt"] + v["filter.match_ns_per_pkt"], v["filter.stage_ns_per_pkt"], false},
		{"conntrack.op_ns", "conntrack.stage_ns_per_call", v["conntrack.op_ns"], v["conntrack.stage_ns_per_call"], false},
		{"layers.decode + nic.rss", "nic.deliver_ns_per_pkt",
			v["layers.decode_ns_per_pkt"] + v["nic.rss_ns_per_pkt"], v["nic.deliver_ns_per_pkt"], true},
		{"aggregate.update × events/pkt", "core.unattributed_ns_per_pkt",
			v["aggregate.update_ns_per_event"] * v["aggregate.events_per_pkt"], v["core.unattributed_ns_per_pkt"], true},
	}
}

func writeSpans(dir, workload string, seed int64, log *spanLog) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.bin", workload, seed))
	return path, log.write(path)
}
