package retina

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"retina/internal/traffic"
)

func TestLiveStatsDuringRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Filter = "ipv4 and tcp"
	cfg.Cores = 2
	rt, err := New(cfg, Connections(func(*ConnRecord) {}))
	if err != nil {
		t.Fatal(err)
	}

	var snaps atomic.Int64
	var sawConns atomic.Bool
	stop := rt.Monitor(2*time.Millisecond, func(s LiveStats) {
		snaps.Add(1)
		if s.Conns > 0 {
			sawConns.Store(true)
		}
		if s.PoolTotal == 0 || s.PoolFree > s.PoolTotal {
			t.Errorf("bad pool stats: %d/%d", s.PoolFree, s.PoolTotal)
		}
	})
	defer stop()

	src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 3, Flows: 2000, Gbps: 20})
	stats := rt.Run(src)

	if snaps.Load() == 0 {
		t.Fatal("monitor never fired")
	}
	if !sawConns.Load() {
		t.Fatal("monitor never observed live connections")
	}
	final := rt.LiveStats()
	if final.RxFrames != stats.NIC.RxFrames {
		t.Fatalf("LiveStats.RxFrames = %d, run total %d", final.RxFrames, stats.NIC.RxFrames)
	}
}

func TestLossRate(t *testing.T) {
	s := LiveStats{Delivered: 90, Loss: 10}
	if got := s.LossRate(); got != 0.1 {
		t.Fatalf("LossRate = %v", got)
	}
	if (LiveStats{}).LossRate() != 0 {
		t.Fatal("empty LossRate should be 0")
	}
}

func TestLogMonitorOutput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	for _, tc := range []struct {
		name  string
		build func() (*Runtime, error)
	}{
		{"New", func() (*Runtime, error) { return New(cfg, Packets(func(*Packet) {})) }},
		// A runtime built empty and subscribed afterwards has no initial
		// subscription for the log line to describe.
		{"NewDynamic", func() (*Runtime, error) {
			rt, err := NewDynamic(cfg)
			if err != nil {
				return nil, err
			}
			_, err = rt.AddSubscription("main", "", Packets(func(*Packet) {}))
			return rt, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			stop := rt.LogMonitor(&buf, time.Millisecond)
			src := traffic.NewCampusMix(traffic.CampusConfig{Seed: 4, Flows: 1000, Gbps: 20})
			rt.Run(src)
			time.Sleep(5 * time.Millisecond)
			stop()
			out := buf.String()
			for _, want := range []string{"[retina] rx=", "loss=", "subs[main:"} {
				if !strings.Contains(out, want) {
					t.Fatalf("log output missing %q:\n%s", want, out)
				}
			}
		})
	}
}
