// Command perfbench is the repository's benchmark: it replays four
// generated traffic workloads through the Retina runtime on one core and
// reports end-to-end throughput and cost (-trace 0) or a per-layer
// attribution of the same runs (-trace 1), checking the outputs on every
// repetition. See README.md in this directory.
//
//	bash perfbench/run.sh --workload campus --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are committed in
// golden.json.
const defaultSeed = 1

// minReps is the fewest measured repetitions a run reports, however
// short --seconds is.
const minReps = 3

//go:embed golden.json
var goldenJSON []byte

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the fingerprint recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "campus", "workload: campus, elephants, small_pkts, small_pkts_online")
	seed := flag.Int64("seed", defaultSeed, "traffic seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "directory for result and span files (required)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *out == "" {
		return fail(fmt.Errorf("need --seconds >= 1, --trace 0 or 1 and -out"))
	}
	golden := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fail(fmt.Errorf("reading golden digests: %w", err))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	h := host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel()}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU)

	t0 := time.Now()
	t, err := genTraffic(w.name, *seed)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("# traffic %d frames, %.1f MiB, mean %.0f B, %.3f s virtual, generated in %.2f s\n",
		t.Len(), float64(t.WireBytes())/(1<<20), float64(t.WireBytes())/float64(t.Len()),
		float64(t.SpanTicks())/1e6, time.Since(t0).Seconds())

	b := &bench{w: w, t: t}
	if *seed == defaultSeed {
		b.golden = golden[w.name]
		b.checks.check(b.golden != "", "no golden digest recorded for %s", w.name)
	}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metricValue
	var detail any
	if *trace == 0 {
		metrics, detail, err = endToEnd(b, budget)
	} else {
		metrics, detail, err = traced(b, budget, *out, *seed)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Printf("output digest %s", b.digest)
	if b.golden != "" {
		fmt.Printf(" (golden %s)", b.golden)
	}
	fmt.Println()
	for _, m := range b.checks.msgs {
		fmt.Println("CHECK FAILED:", m)
	}
	res := result{
		Correct:   b.checks.failed == 0,
		Attempted: b.checks.attempted,
		Failed:    b.checks.failed,
		Metrics:   metrics,
	}
	rec := map[string]any{"workload": w.name, "seed": *seed, "trace": *trace, "host": h,
		"digest": b.digest, "result": res, "detail": detail}
	path := filepath.Join(*out, fmt.Sprintf("result-%s-trace%d-seed%d.json", w.name, *trace, *seed))
	if err := writeJSON(path, rec); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repeat runs fn once as a warm-up, then until budget has passed and at
// least minReps repetitions were measured.
func repeat(budget time.Duration, fn func() error) error {
	if err := fn(); err != nil {
		return err
	}
	deadline := time.Now().Add(budget)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// summary is a median with its quartiles over the repetitions.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// MarshalJSON writes NaN (a bypassed layer) as null.
func (s summary) MarshalJSON() ([]byte, error) {
	f := func(x float64) any {
		if math.IsNaN(x) {
			return nil
		}
		return x
	}
	return json.Marshal(map[string]any{"median": f(s.Median), "q1": f(s.Q1), "q3": f(s.Q3), "n": s.N})
}

func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		// Linear interpolation between closest ranks.
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return summary{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(s)}
}

// endToEnd measures the untraced repetitions and reports the median of
// each end-to-end metric.
func endToEnd(b *bench, budget time.Duration) (map[string]metricValue, any, error) {
	var samples []e2eSample
	var statePeak float64
	warm := true
	err := repeat(budget, func() error {
		s, err := b.measure(warm)
		if err != nil {
			return err
		}
		if warm {
			statePeak = s.stateMB
		} else {
			s.stateMB = statePeak
			samples = append(samples, s)
		}
		warm = false
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := []struct {
		name, unit string
		f          func(e2eSample) float64
	}{
		{"pps", "pkts/s", func(s e2eSample) float64 { return s.pps }},
		{"gbps", "Gbit/s", func(s e2eSample) float64 { return s.gbps }},
		{"cpu_ns_per_pkt", "ns", func(s e2eSample) float64 { return s.cpuNs }},
		{"allocs_per_pkt", "allocs", func(s e2eSample) float64 { return s.allocs }},
		{"alloc_bytes_per_pkt", "bytes", func(s e2eSample) float64 { return s.allocBytes }},
		{"state_peak_mb", "MiB", func(s e2eSample) float64 { return s.stateMB }},
		{"setup_s", "s", func(s e2eSample) float64 { return s.setupS }},
	}
	var loss float64
	for _, s := range samples {
		loss = max(loss, s.loss)
	}
	fmt.Printf("%-22s %14s %-8s %14s %14s  (median of %d repetitions)\n", "metric", "median", "unit", "q1", "q3", len(samples))
	out := map[string]metricValue{}
	reps := map[string][]float64{}
	detail := map[string]any{"repetitions": reps}
	for _, r := range rows {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = r.f(s)
		}
		sm := summarize(xs)
		fmt.Printf("%-22s %14.6g %-8s %14.6g %14.6g\n", r.name, sm.Median, r.unit, sm.Q1, sm.Q3)
		out[r.name] = metricValue{sm.Median, r.unit}
		reps[r.name], detail[r.name] = xs, sm
	}
	if !b.w.online {
		// One thread replays offline, so CPU time short of wall time is
		// time the host took the vCPU away (steal), not the program.
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = s.cpuNs * s.pps / 1e9
		}
		sm := summarize(xs)
		fmt.Printf("%-22s %14.6g %-8s %14.6g %14.6g  (diagnostic: 1 = the replay never lost its CPU)\n", "cpu_per_wall", sm.Median, "ratio", sm.Q1, sm.Q3)
	}
	// loss_ratio and check_failures must be 0; they feed the result's
	// correct/failed fields rather than the metrics map, whose figures
	// are never 0.
	fmt.Printf("%-22s %14.6g %-8s\n", "loss_ratio", loss, "ratio")
	fmt.Printf("%-22s %14d %-8s (of %d checks)\n", "check_failures", b.checks.failed, "count", b.checks.attempted)
	return out, detail, nil
}

// traced alternates untraced and traced repetitions, reporting the
// median of each per-layer metric over the traced ones.
func traced(b *bench, budget time.Duration, out string, seed int64) (map[string]metricValue, any, error) {
	log := &spanLog{spans: make([]span, 0, b.t.Len()+b.t.Len()/burstSize+64)}
	values := map[string][]float64{}
	warm := true
	err := repeat(budget, func() error {
		u, err := b.measure(false)
		if err != nil {
			return err
		}
		log.spans = log.spans[:0]
		var tr tracedRep
		if b.w.online {
			tr, err = b.tracedOnline(log)
		} else {
			tr, err = b.tracedOffline(log)
		}
		if err != nil {
			return err
		}
		b.verify(tr.rt, tr.d, tr.res)
		rp, err := b.replays(tr.rt)
		if err != nil {
			return err
		}
		if warm {
			warm = false
			return nil
		}
		v := b.layerValues(log, tr, rp)
		v["trace.overhead_ratio"] = float64(b.t.Len()) / tr.res.wall.Seconds() / u.pps
		for k, x := range v {
			values[k] = append(values[k], x)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	med := map[string]float64{}
	detail := map[string]summary{}
	for k, xs := range values {
		s := summarize(xs)
		med[k], detail[k] = s.Median, s
	}
	fmt.Println("replay vs traced split:")
	var bad int
	for _, a := range agreements(med) {
		flag := ""
		if a.disagrees() {
			flag = "  DISAGREES (>2x)"
			bad++
		}
		fmt.Printf("  %-30s %10s ns  vs  %-28s %10s ns%s\n", a.replay, fmtNum(a.replayNs), a.traced, fmtNum(a.tracedNs), flag)
	}
	med["replay.disagreements"] = float64(bad)
	detail["replay.disagreements"] = summary{Median: float64(bad), Q1: float64(bad), Q3: float64(bad), N: 1}

	metrics := map[string]metricValue{}
	fmt.Printf("%-34s %14s %-6s %14s %14s  (median of %d traced repetitions)\n", "metric", "median", "unit", "q1", "q3", len(values["filter.pass_ratio"]))
	for _, m := range layerMetrics {
		x, ok := med[m.name]
		if !ok {
			x = na
		}
		s := detail[m.name]
		fmt.Printf("%-34s %14s %-6s %14s %14s\n", m.name, fmtNum(x), m.unit, fmtNum(s.Q1), fmtNum(s.Q3))
		if math.IsNaN(x) {
			x = 0 // n/a: the workload bypasses the layer
		}
		metrics[m.name] = metricValue{x, m.unit}
	}
	path, err := writeSpans(out, b.w.name, seed, log)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("# %d spans of the last traced repetition written to %s\n", len(log.spans), path)
	return metrics, detail, nil
}

func fmtNum(x float64) string {
	if math.IsNaN(x) {
		return "n/a"
	}
	return strings.TrimSpace(fmt.Sprintf("%.6g", x))
}
