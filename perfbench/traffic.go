package main

import (
	"fmt"
	"math/rand"

	"retina"
	"retina/internal/layers"
	"retina/internal/traffic"
)

// Traffic is a workload's materialized frames: one byte arena plus an
// offset table and a tick table. Nothing in it holds a pointer per frame,
// so a garbage collection during a replay scans three slices instead of
// marking a million frame objects.
type Traffic struct {
	data  []byte
	off   []uint32 // frame i is data[off[i]:off[i+1]]
	ticks []uint64
}

// Len is the number of frames.
func (t *Traffic) Len() int { return len(t.ticks) }

// Frame returns frame i, aliasing the arena.
func (t *Traffic) Frame(i int) []byte { return t.data[t.off[i]:t.off[i+1]:t.off[i+1]] }

// Tick returns frame i's virtual receive tick (1 tick = 1 µs).
func (t *Traffic) Tick(i int) uint64 { return t.ticks[i] }

// WireBytes is the sum of the frame lengths.
func (t *Traffic) WireBytes() uint64 { return uint64(len(t.data)) }

// SpanTicks is the virtual time the traffic covers.
func (t *Traffic) SpanTicks() uint64 { return t.ticks[len(t.ticks)-1] - t.ticks[0] }

func (t *Traffic) add(frame []byte, tick uint64) {
	if len(t.off) == 0 {
		t.off = append(t.off, 0)
	}
	t.data = append(t.data, frame...)
	t.off = append(t.off, uint32(len(t.data)))
	t.ticks = append(t.ticks, tick)
}

// materialize drains src into a Traffic, sized by the expected frame
// count and mean frame length so the arena grows at most a few times.
func materialize(src retina.Source, frames, meanLen int) *Traffic {
	t := &Traffic{
		data:  make([]byte, 0, frames*meanLen),
		off:   make([]uint32, 0, frames+1),
		ticks: make([]uint64, 0, frames),
	}
	for {
		f, tick, ok := src.Next()
		if !ok {
			break
		}
		t.add(f, tick)
	}
	return t
}

// stretch rescales the ticks so the traffic spans span ticks of virtual
// time, keeping their order and relative spacing.
func (t *Traffic) stretch(span uint64) {
	first, last := t.ticks[0], t.ticks[len(t.ticks)-1]
	if last == first {
		return
	}
	for i, tk := range t.ticks {
		t.ticks[i] = first + uint64(float64(tk-first)*float64(span)/float64(last-first))
	}
}

// Traffic sizes. Each is large enough that one replay takes a few tenths
// of a second on one core, and small enough that the arena stays near
// 150 MiB.
const (
	campusFlows   = 7000
	campusSpan    = 30 * 1_000_000 // virtual µs: six 5 s establish timeouts
	elephantFlows = 1100
	elephantGbps  = 100
	smallFrames   = 1 << 20
	smallFlows    = 1 << 14
	smallPayload  = 16
	smallGbps     = 100
	campusMeanLen = 950
	elephantMean  = 1150
	smallFrameLen = 70
)

// campusTraffic is traffic.NewCampusMix at its Appendix C defaults with
// campusFlows flows, paced so the run spans several establish timeouts.
func campusTraffic(seed int64) *Traffic {
	mix := traffic.NewCampusMix(traffic.CampusConfig{Seed: seed, Flows: campusFlows})
	t := materialize(mix, campusFlows*23, campusMeanLen)
	t.stretch(campusSpan)
	return t
}

// elephantTraffic is the campus mix with 38% of bulk TCP flows (TLS,
// HTTP, opaque TCP) redrawn to 900-1499 data segments, lifting the mean
// from the campus generator's ≈22 to the paper's ≈121 packets per
// connection, at 100 Gbps virtual.
func elephantTraffic(seed int64) *Traffic {
	base := traffic.CampusFlowFactory(traffic.CampusConfig{})
	factory := func(rng *rand.Rand, id int) *traffic.FlowSpec {
		spec := base(rng, id)
		switch spec.Kind {
		case traffic.KindTLS, traffic.KindHTTP, traffic.KindPlainTCP:
			if rng.Float64() < 0.38 {
				spec.DataSegments = 900 + rng.Intn(600)
			}
		}
		return spec
	}
	mix := traffic.NewMixer(seed, elephantFlows, 128, elephantGbps, factory)
	return materialize(mix, elephantFlows*121, elephantMean)
}

// smallTraffic is minimum-size TCP frames (16 B payload, 70 B on the
// wire) spread over many concurrent established flows, in random flow
// order, at 100 Gbps virtual.
func smallTraffic(seed int64) *Traffic {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]layers.PacketSpec, smallFlows)
	for i := range flows {
		s := &flows[i]
		s.Proto = layers.IPProtoTCP
		s.SrcIP4 = [4]byte{10, byte(rng.Intn(250) + 1), byte(rng.Intn(250) + 1), byte(rng.Intn(250) + 1)}
		s.DstIP4 = [4]byte{byte(rng.Intn(200) + 11), byte(rng.Intn(250) + 1), byte(rng.Intn(250) + 1), byte(rng.Intn(250) + 1)}
		s.SrcPort = uint16(20000 + rng.Intn(40000))
		s.DstPort = uint16(1 + rng.Intn(1023))
		s.Seq = rng.Uint32()
		s.Ack = rng.Uint32()
		s.TCPFlags = layers.TCPAck
		s.Window = 65535
	}
	payload := make([]byte, smallPayload)
	var b layers.Builder
	t := &Traffic{
		data:  make([]byte, 0, smallFrames*smallFrameLen),
		off:   make([]uint32, 0, smallFrames+1),
		ticks: make([]uint64, 0, smallFrames),
	}
	var tick float64
	for i := 0; i < smallFrames; i++ {
		s := &flows[rng.Intn(len(flows))]
		rng.Read(payload)
		s.Payload = payload
		f := b.Build(s)
		s.Seq += smallPayload
		tick += float64(len(f)*8) / (smallGbps * 1000)
		t.add(f, uint64(tick))
	}
	return t
}

// genTraffic builds the named workload's traffic from seed.
func genTraffic(workload string, seed int64) (*Traffic, error) {
	switch workload {
	case "campus":
		return campusTraffic(seed), nil
	case "elephants":
		return elephantTraffic(seed), nil
	case "small_pkts", "small_pkts_online":
		return smallTraffic(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
