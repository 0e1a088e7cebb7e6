package core

import (
	"testing"

	"retina/internal/conntrack"
	"retina/internal/layers"
	"retina/internal/mbuf"
)

// timedFrame is one workload frame with its receive tick.
type timedFrame struct {
	frame []byte
	tick  uint64
}

// burstTestCore builds a core with short virtual timeouts so expiries
// land inside a small test workload.
func burstTestCore(t *testing.T, burst int, sub *Subscription) *Core {
	t.Helper()
	ct := conntrack.DefaultConfig()
	ct.EstablishTimeout = 500_000    // 0.5s virtual
	ct.InactivityTimeout = 1_000_000 // 1s virtual
	c, err := NewCore(0, Config{Set: testSet(t, "ipv4 and tcp", sub), Conntrack: ct, BurstSize: burst})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// processBursts feeds w through the core in bursts of the given size.
func processBursts(c *Core, w []timedFrame, burst int) {
	for i := 0; i < len(w); i += burst {
		end := i + burst
		if end > len(w) {
			end = len(w)
		}
		batch := make([]*mbuf.Mbuf, 0, burst)
		for _, tf := range w[i:end] {
			m := mbuf.FromBytes(tf.frame)
			m.RxTick = tf.tick
			batch = append(batch, m)
		}
		c.ProcessBurst(batch)
	}
}

// timerWorkload builds a sequence where connection A goes idle and its
// inactivity deadline falls between two bursts while connection B keeps
// the clock advancing, so the once-per-burst wheel advance must expire
// A at the first burst boundary past the deadline — the same virtual
// tick at which bursts of one expire it.
func timerWorkload(t *testing.T) []timedFrame {
	a := newFlow(t, 40001, 443)
	b := newFlow(t, 40002, 443)
	var w []timedFrame
	tick := uint64(1000)
	for _, fr := range a.handshake() {
		w = append(w, timedFrame{fr, tick})
		tick += 100
	}
	w = append(w, timedFrame{a.pkt(true, layers.TCPPsh|layers.TCPAck, []byte("ping")), tick})
	// B's packets march virtual time far past A's inactivity deadline,
	// in steps small enough that several whole bursts elapse first.
	for _, fr := range b.handshake() {
		w = append(w, timedFrame{fr, tick})
		tick += 100
	}
	for i := 0; i < 256; i++ {
		w = append(w, timedFrame{b.pkt(i%2 == 0, layers.TCPPsh|layers.TCPAck, []byte("data")), tick})
		tick += 50_000 // 50ms per packet: A's 1s deadline passes ~20 packets in
	}
	return w
}

// TestBurstBoundaryTimerSemantics runs the same seeded workload through
// ProcessBurst at burst=1 and at burst=32 and asserts identical delivered/created/expired accounting. Timer
// expiry moves to burst boundaries under batching; for any workload
// whose idle gaps exceed a burst's virtual span (microseconds here,
// against second-scale timeouts) the observable counts must not change.
func TestBurstBoundaryTimerSemantics(t *testing.T) {
	run := func(burst int) (CoreStats, uint64, int) {
		var conns uint64
		sub := &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) { conns++ }}
		c := burstTestCore(t, burst, sub)
		processBursts(c, timerWorkload(t), burst)
		// Capture pre-flush: expiry-driven deliveries must already have
		// happened during processing, not only at the final flush.
		preFlush := conns
		live := c.Table().Len()
		c.Flush()
		st := c.Stats()
		st.Delivered = 0 // recomputed per snapshot; compare components
		if conns != preFlush+uint64(live) {
			t.Fatalf("burst=%d: flush delivered %d records for %d live conns", burst, conns-preFlush, live)
		}
		return st, preFlush, live
	}

	single, singlePre, singleLive := run(1)
	burst, burstPre, burstLive := run(32)

	if singlePre == 0 {
		t.Fatal("workload never expired a connection before flush; timer path untested")
	}
	if singlePre != burstPre {
		t.Fatalf("pre-flush conn deliveries diverge: single=%d burst=%d", singlePre, burstPre)
	}
	if singleLive != burstLive {
		t.Fatalf("live connections at end diverge: single=%d burst=%d", singleLive, burstLive)
	}
	if single != burst {
		t.Fatalf("core stats diverge between burst=1 and burst=32:\nsingle: %+v\nburst:  %+v", single, burst)
	}
}

// TestProcessBurstMatchesPerPacket feeds an arbitrary mixed workload
// (no timer pressure) through ProcessBurst at burst=1 and burst=32 and
// requires byte-identical counter snapshots.
func TestProcessBurstMatchesPerPacket(t *testing.T) {
	mkWorkload := func() []timedFrame {
		f := newFlow(t, 41001, 443)
		g := newFlow(t, 41002, 80)
		var w []timedFrame
		tick := uint64(500)
		emit := func(fr []byte) {
			w = append(w, timedFrame{fr, tick})
			tick += 250
		}
		for _, fr := range f.handshake() {
			emit(fr)
		}
		for _, fr := range g.handshake() {
			emit(fr)
		}
		for i := 0; i < 40; i++ {
			emit(f.pkt(i%2 == 0, layers.TCPPsh|layers.TCPAck, []byte("abcdefgh")))
			emit(g.pkt(i%3 == 0, layers.TCPPsh|layers.TCPAck, []byte("xyz")))
		}
		for _, fr := range f.teardown() {
			emit(fr)
		}
		return w
	}

	run := func(burst int) CoreStats {
		sub := &Subscription{Level: LevelConnection, OnConn: func(*ConnRecord) {}}
		c := burstTestCore(t, burst, sub)
		processBursts(c, mkWorkload(), burst)
		c.Flush()
		st := c.Stats()
		st.Delivered = 0
		return st
	}

	single := run(1)
	batched := run(32)
	if single != batched {
		t.Fatalf("ProcessBurst(burst=32) diverges from burst=1:\nsingle: %+v\nburst:  %+v", single, batched)
	}
}
