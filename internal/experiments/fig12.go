package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"retina"
	"retina/internal/traffic"
)

// NetflixFilter32 is the 32-predicate Bronzino et al. filter from
// Appendix B's footnote, adapted to the filter language.
const NetflixFilter32 = `ipv4.addr in 23.246.0.0/18 or ipv4.addr in 37.77.184.0/21 or ` +
	`ipv4.addr in 45.57.0.0/17 or ipv4.addr in 64.120.128.0/17 or ` +
	`ipv4.addr in 66.197.128.0/17 or ipv4.addr in 108.175.32.0/20 or ` +
	`ipv4.addr in 185.2.220.0/22 or ipv4.addr in 185.9.188.0/22 or ` +
	`ipv4.addr in 192.173.64.0/18 or ipv4.addr in 198.38.96.0/19 or ` +
	`ipv4.addr in 198.45.48.0/20 or ipv4.addr in 208.75.79.0/24 or ` +
	`ipv6.addr in 2620:10c:7000::/44 or ipv6.addr in 2a00:86c0::/32 or ` +
	`tls.sni ~ 'netflix\.com' or tls.sni ~ 'nflxvideo\.net' or ` +
	`tls.sni ~ 'nflximg\.net' or tls.sni ~ 'nflxext\.com' or ` +
	`tls.sni ~ 'nflximg\.com' or tls.sni ~ 'nflxso\.net'`

// Fig12Filters are the five filter configurations of Figure 12.
var Fig12Filters = []struct {
	Label  string
	Filter string
}{
	{"None", ""},
	{`"ipv4"`, "ipv4"},
	{`"tcp.port = 443"`, "tcp.port = 443"},
	{`"tls.cipher ~ 'AES_128_GCM'"`, `tls.cipher ~ 'AES_128_GCM'`},
	{"Netflix traffic", NetflixFilter32},
}

// Fig12Point is one (trace, filter) speedup measurement. CompiledSec and
// InterpSec are each engine's best run; Speedup is the median of the
// per-pair interpreted/compiled ratios.
type Fig12Point struct {
	Trace       string
	Filter      string
	CompiledSec float64
	InterpSec   float64
	Speedup     float64
}

// Fig12Config parameterizes the compiled-vs-interpreted comparison.
// Repeats is the number of compiled/interpreted run pairs per cell.
type Fig12Config struct {
	FlowsPerTrace int
	Repeats       int
}

// DefaultFig12 mirrors Appendix B: four traces, five filters, offline
// single-core processing, TLS handshake logging.
func DefaultFig12() Fig12Config { return Fig12Config{FlowsPerTrace: 800, Repeats: 3} }

// RunFig12 measures the CPU-time speedup of natively compiled filters
// over runtime-interpreted filters per trace and filter.
func RunFig12(cfg Fig12Config, scale float64) []Fig12Point {
	flows := int(float64(cfg.FlowsPerTrace) * scale)
	if flows < 100 {
		flows = 100
	}
	var out []Fig12Point
	for _, prof := range []traffic.StratosphereProfile{traffic.Norm7, traffic.Norm12, traffic.Norm20, traffic.Norm30} {
		// Materialize the trace once.
		var frames [][]byte
		var ticks []uint64
		src := traffic.NewStratosphereLike(prof, flows)
		for {
			f, tk, ok := src.Next()
			if !ok {
				break
			}
			frames = append(frames, append([]byte(nil), f...))
			ticks = append(ticks, tk)
		}
		for _, fl := range Fig12Filters {
			pt := fig12Cell(fl.Filter, frames, ticks, cfg.Repeats)
			pt.Trace, pt.Filter = prof.Name(), fl.Label
			out = append(out, pt)
		}
	}
	return out
}

// fig12Cell times the two engines pair by pair, alternating which runs
// first, so host-speed drift during the cell hits both sides of every
// pair alike; the median pair ratio then discards outlier pairs.
func fig12Cell(filterSrc string, frames [][]byte, ticks []uint64, repeats int) Fig12Point {
	if repeats < 1 {
		repeats = 1
	}
	var pt Fig12Point
	ratios := make([]float64, 0, repeats)
	for r := 0; r < repeats; r++ {
		var comp, interp float64
		if r%2 == 0 {
			comp = fig12Run(filterSrc, false, frames, ticks)
			interp = fig12Run(filterSrc, true, frames, ticks)
		} else {
			interp = fig12Run(filterSrc, true, frames, ticks)
			comp = fig12Run(filterSrc, false, frames, ticks)
		}
		if pt.CompiledSec == 0 || comp < pt.CompiledSec {
			pt.CompiledSec = comp
		}
		if pt.InterpSec == 0 || interp < pt.InterpSec {
			pt.InterpSec = interp
		}
		if comp > 0 {
			ratios = append(ratios, interp/comp)
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		mid := len(ratios) / 2
		pt.Speedup = ratios[mid]
		if len(ratios)%2 == 0 {
			pt.Speedup = (ratios[mid-1] + ratios[mid]) / 2
		}
	}
	return pt
}

// fig12Run times one offline run of the trace and returns its seconds.
func fig12Run(filterSrc string, interpreted bool, frames [][]byte, ticks []uint64) float64 {
	cfg := baseConfig()
	cfg.Filter = filterSrc
	cfg.Cores = 1
	cfg.Interpreted = interpreted
	cfg.PoolSize = 8192
	// The Appendix B task: log TLS handshakes matching the filter.
	rt, err := retina.New(cfg, retina.TLSHandshakes(func(*retina.TLSHandshake, *retina.SessionEvent) {}))
	if err != nil {
		panic(fmt.Sprintf("fig12 filter %q: %v", filterSrc, err))
	}
	start := time.Now()
	rt.RunOffline(&sliceSource{frames: frames, ticks: ticks})
	return time.Since(start).Seconds()
}

// PrintFig12 renders the speedup grid.
func PrintFig12(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "Figure 12 (Appendix B): speedup of compiled over interpreted filters")
	fmt.Fprintln(w, "Paper: 5.4%-300.4% speedup; larger for complex filters (Netflix 32-predicate).")
	fmt.Fprintln(w)
	tbl := &Table{Header: []string{"trace", "filter", "compiled s", "interpreted s", "speedup"}}
	for _, p := range pts {
		tbl.Add(p.Trace, p.Filter, fmt.Sprintf("%.4f", p.CompiledSec),
			fmt.Sprintf("%.4f", p.InterpSec), fmt.Sprintf("%.2fx", p.Speedup))
	}
	tbl.Write(w)
}
