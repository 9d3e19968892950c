// Command perfbench is the repository benchmark. It drives one workload
// through the public APIs of the simulator (internal/cluster), the
// real-mode runtime over the TCP broker (internal/realtime, internal/queue)
// and the inference server (internal/serve), checks the outputs, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run alternates untraced and traced rounds and reports the per-layer
// metrics instead, and writes the spans and layer numbers to a JSON file
// under the build directory. See README.md for the workloads, the metrics
// and the layer-to-end-to-end predictions.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fed256 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// e2eMetrics are reported by every workload's untraced run. Each workload
// defines every one of them (README.md, "End-to-end metrics").
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"samples_per_s", "1/s"},
	{"final_acc", "ratio"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"max_rps", "1/s"},
}

// layerMetrics are reported by every workload's traced run. A layer the
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"simclock.events", "count"},
	{"simclock.events_per_s", "1/s"},
	{"simclock.cpu_s", "s"},
	{"cluster.cpu_s", "s"},
	{"cluster.delivered_mb", "MB"},
	{"core.iters", "count"},
	{"core.grad_msgs", "count"},
	{"core.msgs_sent", "count"},
	{"core.cpu_s", "s"},
	{"core.compute_s", "s"},
	{"core.recv_wait_s", "s"},
	{"core.apply_s", "s"},
	{"grad.select_calls", "count"},
	{"grad.select_s", "s"},
	{"grad.selected_mb", "MB"},
	{"grad.selects_per_grad_msg", "ratio"},
	{"grad.cpu_s", "s"},
	{"nn.cpu_s", "s"},
	{"tensor.cpu_s", "s"},
	{"nn.build_cpu_s", "s"},
	{"nn.eval_cpu_s", "s"},
	{"wire.msgs", "count"},
	{"wire.mb", "MB"},
	{"wire.encode_cpu_s", "s"},
	{"wire.decode_cpu_s", "s"},
	{"wire.cpu_s", "s"},
	{"queue.send_calls", "count"},
	{"queue.send_s", "s"},
	{"queue.recv_wait_s", "s"},
	{"queue.send_mb_per_s", "MB/s"},
	{"queue.depth_max", "count"},
	{"queue.errors", "count"},
	{"queue.cpu_s", "s"},
	{"realtime.fifo_drops", "count"},
	{"realtime.send_queue_depth_max", "count"},
	{"realtime.cpu_s", "s"},
	{"data.generate_s", "s"},
	{"data.cpu_s", "s"},
	{"serve.batch_fill_mean", "count"},
	{"serve.server_p99_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.publish_s", "s"},
	{"serve.swaps", "count"},
	{"serve.cpu_s", "s"},
	{"other.cpu_s", "s"},
	{"bench.cpu_s", "s"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_pause_s", "s"},
	{"profile.cpu_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// opts are the command-line settings one run receives.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// result is what a workload hands back to main.
type result struct {
	attempted int64
	failed    int64
	failures  []string           // one line per failed correctness check
	metrics   map[string]float64 // the e2e or layer set, by name
	timings   map[string]timing  // printed in the human-readable table
	spans     []span             // traced runs only
	dropped   int                // spans past the in-memory cap
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, timings: map[string]timing{}}
}

// fail records one failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// roundMeta is what measureRounds records about each round.
type roundMeta struct {
	traced  bool
	allocMB float64
	peakMB  float64
}

// measureRounds repeats one round of a workload until the measuring time
// is spent, and at least twice: the repeat checks need two rounds, and a
// traced run needs one untraced and one traced round. With tracing, every
// other round runs traced, under the CPU profiler. round does the timed
// work and returns its wall time; done receives the round's memory
// figures and runs outside the round's memory window. measureRounds
// returns the GC pause time of the traced rounds.
func measureRounds(o opts, prof *cpuProfiler, round func(i int, traced bool) (float64, error), done func(roundMeta)) (float64, error) {
	var gcPause float64
	start := time.Now()
	for i := 0; ; i++ {
		meta := roundMeta{traced: o.trace && i%2 == 1}
		mem := startMem()
		pause0 := gcPauseSeconds()
		if meta.traced {
			if err := prof.start(); err != nil {
				return 0, err
			}
		}
		wall, err := round(i, meta.traced)
		if meta.traced {
			if perr := prof.stop(); err == nil {
				err = perr
			}
			gcPause += gcPauseSeconds() - pause0
		}
		if err != nil {
			return 0, err
		}
		meta.allocMB, meta.peakMB = mem.stop()
		done(meta)
		if i >= 1 && time.Since(start).Seconds()+wall > o.seconds {
			return gcPause, nil
		}
	}
}

// workload is one named set of inputs. run receives the seed and the
// measuring time and returns the metrics of that run.
type workload struct {
	name string
	why  string
	run  func(o opts) (*result, error)
}

func workloads() []workload {
	return []workload{
		{"fed256", fed256Why, func(o opts) (*result, error) { return runSim(fed256, o) }},
		{"flat32", flat32Why, func(o opts) (*result, error) { return runSim(flat32, o) }},
		{"real2-dense", real2Why, runReal},
		{"serve-swap", serveWhy, runServe},
	}
}

// report is the final JSON line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run (fed256, flat32, real2-dense, serve-swap)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()

	var wl *workload
	all := workloads()
	for i := range all {
		if all[i].name == *name {
			wl = &all[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range all {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Printf("workload %s (seed %d, %gs, trace %d): %s\n", wl.name, o.seed, o.seconds, *trace, wl.why)

	res, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if o.trace {
		if path, err := writeTrace(wl.name, o.seed, res); err != nil {
			res.fail("write trace: %v", err)
		} else {
			fmt.Printf("trace written to %s\n", path)
		}
	}
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
	}
	if !emit(res, defs) {
		os.Exit(1)
	}
}

// emit prints the human-readable table and the JSON line, and reports
// whether every correctness check passed.
func emit(res *result, defs []metricDef) bool {
	keys := make([]string, 0, len(res.timings))
	for k := range res.timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  timing %-22s %s\n", k, res.timings[k])
	}
	rep := report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s missing or not finite (%v)", d.name, v)
			v = 0
		}
		fmt.Printf("  %-30s %14.6g %s\n", d.name, v, d.unit)
		rep.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for _, f := range res.failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}
	if len(res.failures) > 0 && rep.Failed == 0 {
		// A check that is not about one operation fails the run as a whole.
		rep.Failed = 1
	}
	if rep.Attempted < rep.Failed {
		rep.Attempted = rep.Failed
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	rep.Correct = len(res.failures) == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode report: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return rep.Correct
}

// writeTrace stores a traced run's spans and layer metrics as JSON under
// the build directory ($CARGO_TARGET_DIR, default .bench_build).
func writeTrace(name string, seed uint64, res *result) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	body, err := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "layers": res.metrics,
		"spans": res.spans, "dropped_spans": res.dropped,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
