package main

import (
	"fmt"
	"runtime"

	"retina"
	"retina/internal/aggregate"
	"retina/internal/conntrack"
	"retina/internal/core"
	"retina/internal/filter"
	"retina/internal/layers"
	"retina/internal/metrics"
	"retina/internal/nic"
)

// replayFrames bounds the frames each layer replay loops over.
const replayFrames = 1 << 18

// replayResult holds the layer replays: timed loops over the workload's
// own frames calling one layer's public entry point.
type replayResult struct {
	decodeNs      float64 // layers.Parsed.DecodeLayers per frame
	matchNs       float64 // every subscription's Program.PacketWith per frame
	allocsPerEval float64 // heap allocations per PacketWith call
	rssNs         float64 // nic.RSSInput + nic.Toeplitz per frame
	ctOpNs        float64 // conntrack GetOrCreate + TouchSeq per packet
	aggNs         float64 // aggregate CoreState.UpdatePacket per event
}

// sink keeps the replays' results observable so no loop is optimized
// away.
var sink uint64

// timeLoop runs fn twice and keeps the faster run, in nanoseconds.
func timeLoop(fn func()) float64 {
	best := int64(-1)
	for i := 0; i < 2; i++ {
		s := metrics.NowNanos()
		fn()
		if d := metrics.NowNanos() - s; best < 0 || d < best {
			best = d
		}
	}
	return float64(best)
}

// replays runs the layer replays that apply to the workload: the NIC's
// RSS only online, conntrack only where the traced repetition on rt
// tracked connections, aggregation only for subscriptions with a query.
func (b *bench) replays(rt *retina.Runtime) (replayResult, error) {
	var rp replayResult
	n := min(b.t.Len(), replayFrames)
	var p layers.Parsed
	decode := func() {
		for i := 0; i < n; i++ {
			if p.DecodeLayers(b.t.Frame(i)) == nil {
				sink++
			}
		}
	}
	decodeNs := timeLoop(decode)
	rp.decodeNs = decodeNs / float64(n)

	var progs []*filter.Program
	for _, info := range rt.ListSubscriptions() {
		spec := rt.ControlPlane().Spec(info.Name)
		if spec == nil {
			return rp, fmt.Errorf("subscription %s has no spec", info.Name)
		}
		progs = append(progs, spec.Prog)
	}
	var scratch filter.PacketScratch
	match := func() {
		for i := 0; i < n; i++ {
			if p.DecodeLayers(b.t.Frame(i)) != nil {
				continue
			}
			for _, prog := range progs {
				sink += uint64(prog.PacketWith(&p, &scratch).Node)
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	matchNs := timeLoop(match)
	runtime.ReadMemStats(&m1)
	rp.matchNs = (matchNs - decodeNs) / float64(n)
	rp.allocsPerEval = float64(m1.Mallocs-m0.Mallocs) / float64(2*n*len(progs))

	if b.w.online {
		key := nic.SymmetricKey()
		var buf [36]byte
		rss := func() {
			for i := 0; i < n; i++ {
				if p.DecodeLayers(b.t.Frame(i)) != nil {
					continue
				}
				if in, ok := nic.RSSInput(&p, buf[:]); ok {
					sink += uint64(nic.Toeplitz(key, in))
				}
			}
		}
		rp.rssNs = (timeLoop(rss) - decodeNs) / float64(n)
	}
	if rt.Cores()[0].StageStats().Invocations(core.StageConnTrack) > 0 {
		rp.ctOpNs = b.conntrackReplay(n)
	}
	for _, info := range rt.ListSubscriptions() {
		if spec := rt.ControlPlane().Spec(info.Name); spec != nil && spec.Agg != nil {
			ns, err := b.aggregateReplay(n, spec.Prog, spec.Agg.Q)
			if err != nil {
				return rp, err
			}
			rp.aggNs = ns
		}
	}
	return rp, nil
}

// ctOp is one packet's connection-tracking input, extracted before the
// timed loop.
type ctOp struct {
	ft      layers.FiveTuple
	tick    uint64
	wire    int32
	payload int32
	seq     uint32
	flags   uint8
	tcp     bool
}

// conntrackReplay drives a fresh table with the packets' tuples the way
// the core's connection-tracking stage does, advancing the clock once
// per burst outside the timed chunks. It returns ns per packet.
func (b *bench) conntrackReplay(n int) float64 {
	var p layers.Parsed
	ops := make([]ctOp, 0, n)
	for i := 0; i < n; i++ {
		if p.DecodeLayers(b.t.Frame(i)) != nil {
			continue
		}
		ft, ok := layers.FiveTupleFrom(&p)
		if !ok {
			continue
		}
		op := ctOp{ft: ft, tick: b.t.Tick(i), wire: int32(len(b.t.Frame(i))), payload: int32(len(p.Payload()))}
		if p.L4 == layers.LayerTypeTCP {
			op.tcp, op.flags, op.seq = true, p.TCP.Flags, p.TCP.Seq
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return na
	}
	run := func() int64 {
		tbl := conntrack.NewTable(conntrack.DefaultConfig())
		var ns int64
		for lo := 0; lo < len(ops); lo += burstSize {
			hi := min(lo+burstSize, len(ops))
			s := metrics.NowNanos()
			for i := lo; i < hi; i++ {
				op := &ops[i]
				c, _, ok := tbl.GetOrCreate(op.ft, op.tick)
				if ok {
					tbl.TouchSeq(c, op.ft, op.tick, int(op.wire), int(op.payload), op.flags, op.seq, op.tcp)
				}
			}
			ns += metrics.NowNanos() - s
			tbl.Advance(ops[hi-1].tick, func(*conntrack.Conn, conntrack.ExpireReason) {})
		}
		return ns
	}
	best := min(run(), run())
	return float64(best) / float64(len(ops))
}

// aggregateReplay folds the frames the subscription's filter passes into
// a fresh instance of its query, advancing windows once per burst like
// the core. It returns ns per event, net of decoding.
func (b *bench) aggregateReplay(n int, prog *filter.Program, q aggregate.Query) (float64, error) {
	var p layers.Parsed
	var scratch filter.PacketScratch
	var idx []int32
	for i := 0; i < n; i++ {
		if p.DecodeLayers(b.t.Frame(i)) == nil && prog.PacketWith(&p, &scratch).Terminal {
			idx = append(idx, int32(i))
		}
	}
	if len(idx) == 0 {
		return na, nil
	}
	spec := &aggregate.Spec{Op: q.Op.String(), Key: q.Key.String(), Value: q.Val.String(), K: q.K, MaxGroups: q.MaxGroups}
	if q.WindowTicks > 0 {
		spec.Window = fmt.Sprintf("%dus", q.WindowTicks)
	}
	var st *aggregate.CoreState
	fold := func() {
		for j, i := range idx {
			f := b.t.Frame(int(i))
			if p.DecodeLayers(f) != nil {
				continue
			}
			st.UpdatePacket(&p, len(f), b.t.Tick(int(i)))
			if j%burstSize == burstSize-1 {
				st.Advance(b.t.Tick(int(i)))
			}
		}
	}
	decodeOnly := func() {
		for _, i := range idx {
			if p.DecodeLayers(b.t.Frame(int(i))) == nil {
				sink++
			}
		}
	}
	best := int64(-1)
	for r := 0; r < 2; r++ {
		inst, err := aggregate.Compile("replay", spec, aggregate.Env{Source: aggregate.SourcePacket, PacketDecidable: true})
		if err != nil {
			return 0, fmt.Errorf("compiling aggregate replay: %w", err)
		}
		st = inst.StateFor(0)
		s := metrics.NowNanos()
		fold()
		if d := metrics.NowNanos() - s; best < 0 || d < best {
			best = d
		}
	}
	return (float64(best) - timeLoop(decodeOnly)) / float64(len(idx)), nil
}
