package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
	"dlion/internal/systems"
)

const fed256Why = "sim, 256 workers in 4 clouds: all-to-all bursts of n^2 near-equal arrivals and 256 replica builds make simclock and set-up dominate"

const flat32Why = "sim, 32 workers on a flat 200 Mbps mesh: train step (nn/tensor) and Max-N select/apply (grad) dominate, simclock is a few percent"

// simSpec sizes one simulator workload. The configuration is owned here,
// not borrowed from the repository's own bench helpers, so editing those
// cannot move the workload.
type simSpec struct {
	name     string
	n        int
	clouds   int     // 0: flat mesh of n workers; else clouds LAN meshes joined by a shared WAN
	horizon  float64 // virtual seconds
	capacity float64 // compute units per worker (iteration time 0.05 + 0.5*LBS/capacity virtual s)
	jitter   float64 // federation only: relative compute-time jitter drawn from the seed
	accFloor float64 // minimum final mean accuracy the check accepts
}

var fed256 = simSpec{name: "fed256", n: 256, clouds: 4, horizon: 0.7, capacity: 40, jitter: 0.02, accFloor: 0.2}

var flat32 = simSpec{name: "flat32", n: 32, horizon: 20, capacity: 12, accFloor: 0.5}

// config builds the cluster configuration for one seed. On a flat mesh the
// seed drives the dataset, the partition and the replica initialisation.
// In a federation only one iteration fits the horizon, so the final
// accuracy is set by the initial weights alone and would swing with them
// (0.22 to 0.51 over five seeds), and the cost of the arrival bursts swings
// with the network's round-trip times (set-up 4.5 to 7.4 s over five
// draws). There the dataset, initialisation and network are fixed, and the
// seed draws each worker's compute-time jitter stream instead.
func (s simSpec) config(seed uint64, sys core.Config) cluster.Config {
	inputSeed, jitter := seed, 0.0
	nw := simnet.Uniform(s.n, simcompute.Constant(200), 0.001)
	if s.clouds > 0 {
		inputSeed, jitter = 1, s.jitter
		nw = simnet.HierarchicalUniform(s.clouds, s.n/s.clouds, 1000, 100, 0.0002, 0.03)
	}
	dc := data.Config{Name: s.name, NumClasses: 3, Train: 2048, Test: 256,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Bumps: 3, Seed: inputSeed}
	comps := make([]*simcompute.Compute, s.n)
	for i := range comps {
		comps[i] = simcompute.New(simcompute.Constant(s.capacity),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5, Jitter: jitter}, seed*1000+uint64(i))
	}
	return cluster.Config{
		System:     sys,
		Model:      nn.CipherSpec(1, 8, 8, 3, 0),
		Data:       dc,
		N:          s.n,
		Computes:   comps,
		Network:    nw,
		Horizon:    s.horizon,
		EvalPeriod: s.horizon, // evaluate only at t=0 and at the horizon
		EvalSubset: 32,
		EvalBatch:  32,
		Seed:       inputSeed,
	}
}

// simRound is one cluster.Run and what the benchmark measured around it.
type simRound struct {
	traced  bool
	wall    float64 // cluster.Run wall seconds
	loop    float64 // event-loop wall seconds
	allocMB float64
	peakMB  float64
	res     *cluster.Result // Models dropped after the check
	digests []lineage.Hash
}

// runSim repeats cluster.Run on one seeded configuration for the
// measuring time. Every repeat must reproduce the first one's replica
// digests and worker counters exactly; with -trace 1 every other repeat
// runs with the selector wrapper and the CPU profiler on.
func runSim(s simSpec, o opts) (*result, error) {
	res := newResult()
	var tr *tracer
	var prof *cpuProfiler
	sel := &selectorStats{}
	if o.trace {
		tr = newTracer()
		prof = newCPUProfiler()
	}
	var rounds []simRound
	var r *cluster.Result
	var wall float64
	gcPause, err := measureRounds(o, prof, func(i int, traced bool) (float64, error) {
		sys := systems.DLion()
		if traced {
			sys.NewSelector = traceSelector(sys.NewSelector, sel, tr)
		}
		cfg := s.config(o.seed, sys)
		id := tr.open("cluster.Run", 0)
		t0 := time.Now()
		var err error
		r, err = cluster.Run(cfg)
		wall = time.Since(t0).Seconds()
		tr.close(id)
		if err != nil {
			return 0, fmt.Errorf("cluster.Run: %w", err)
		}
		return wall, nil
	}, func(m roundMeta) {
		rd := simRound{traced: m.traced, wall: wall, allocMB: m.allocMB, peakMB: m.peakMB, res: r}
		if r.EventsPerSec > 0 {
			rd.loop = float64(r.Events) / r.EventsPerSec
		}
		fmt.Fprintf(os.Stderr, "%s round %d: traced=%t wall %.3fs loop %.3fs events %d alloc %.0fMB peak %.0fMB\n",
			s.name, len(rounds), rd.traced, wall, rd.loop, r.Events, rd.allocMB, rd.peakMB)
		res.attempted++
		if !checkSimRound(s, &rd, rounds, res) {
			res.failed++
		}
		r.Models = nil // digests are taken; do not carry the replicas into later rounds
		rounds = append(rounds, rd)
	})
	if err != nil {
		return nil, err
	}
	if o.trace {
		simLayers(res, rounds, sel, prof, gcPause)
		res.spans, res.dropped = tr.snapshot()
	} else {
		simE2E(res, rounds)
	}
	return res, nil
}

// checkSimRound verifies one repeat outside the timed window: finite
// weights, final accuracy above the floor, and replica digests and worker
// counters identical to the first repeat's.
func checkSimRound(s simSpec, rd *simRound, prev []simRound, res *result) bool {
	ok := true
	for i, m := range rd.res.Models {
		if !finiteModel(m) {
			res.fail("%s: replica %d has non-finite weights", s.name, i)
			ok = false
			break
		}
		rd.digests = append(rd.digests, lineage.ModelHash(m))
	}
	if acc := rd.res.Timeline.FinalMean(); !(acc >= s.accFloor) {
		res.fail("%s: final accuracy %.4f below floor %.2f", s.name, acc, s.accFloor)
		ok = false
	}
	if len(prev) == 0 {
		return ok
	}
	ref := prev[0]
	for i := range rd.digests {
		if i >= len(ref.digests) || rd.digests[i] != ref.digests[i] {
			res.fail("%s: replica %d digest differs from the first repeat (traced=%t)", s.name, i, rd.traced)
			return false
		}
	}
	for i := range rd.res.Stats {
		if rd.res.Stats[i] != ref.res.Stats[i] {
			res.fail("%s: worker %d stats differ from the first repeat (traced=%t)", s.name, i, rd.traced)
			return false
		}
	}
	return ok
}

// finiteModel reports whether every weight of m is finite.
func finiteModel(m *nn.Model) bool {
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// simE2E fills the end-to-end metrics from the untraced repeats.
func simE2E(res *result, rounds []simRound) {
	var setup, run, sps, acc, alloc, peak, ms, ips []float64
	for _, rd := range rounds {
		var samples, iters int64
		for _, st := range rd.res.Stats {
			samples += st.SamplesProcessed
			iters += st.Iters
		}
		setup = append(setup, rd.wall-rd.loop)
		run = append(run, rd.wall)
		sps = append(sps, float64(samples)/rd.loop)
		acc = append(acc, rd.res.Timeline.FinalMean())
		alloc = append(alloc, rd.allocMB)
		peak = append(peak, rd.peakMB)
		ms = append(ms, rd.wall*1000)
		ips = append(ips, float64(iters)/rd.wall)
	}
	m := res.metrics
	m["setup_s"] = median(setup)
	m["run_s"] = median(run)
	m["samples_per_s"] = median(sps)
	m["final_acc"] = median(acc)
	m["alloc_mb"] = median(alloc)
	m["peak_rss_mb"] = median(peak)
	m["p50_ms"] = median(ms)
	m["p99_ms"] = tailAt(ms, 0.99)
	m["max_rps"] = median(ips)
	res.timings["setup_s"] = summarize(setup)
	res.timings["run_ms"] = summarize(ms)
}

// simLayers fills the per-layer metrics, per traced repeat.
func simLayers(res *result, rounds []simRound, sel *selectorStats, prof *cpuProfiler, gcPause float64) {
	var traced, plain []float64
	var tracedN float64
	var events, evps, deliv, iters, gradMsgs, msgs float64
	for _, rd := range rounds {
		if !rd.traced {
			plain = append(plain, rd.wall)
			continue
		}
		traced = append(traced, rd.wall)
		tracedN++
		events += float64(rd.res.Events)
		evps += rd.res.EventsPerSec
		deliv += float64(rd.res.TotalBytes) / (1 << 20)
		for _, st := range rd.res.Stats {
			iters += float64(st.Iters)
			gradMsgs += float64(st.GradMsgsSent)
			msgs += float64(st.MsgsSent)
		}
	}
	m := res.metrics
	m["simclock.events"] = events / tracedN
	m["simclock.events_per_s"] = evps / tracedN
	m["cluster.delivered_mb"] = deliv / tracedN
	m["core.iters"] = iters / tracedN
	m["core.grad_msgs"] = gradMsgs / tracedN
	m["core.msgs_sent"] = msgs / tracedN
	// Sim phase times are virtual, not host time: the sim relies on the
	// profile for core, grad and nn.
	m["core.compute_s"], m["core.recv_wait_s"], m["core.apply_s"] = 0, 0, 0
	m["grad.select_calls"] = float64(sel.calls.Load()) / tracedN
	m["grad.select_s"] = float64(sel.ns.Load()) / 1e9 / tracedN
	m["grad.selected_mb"] = float64(sel.bytes.Load()) / (1 << 20) / tracedN
	m["grad.selects_per_grad_msg"] = 0
	if gradMsgs > 0 {
		m["grad.selects_per_grad_msg"] = float64(sel.calls.Load()) / gradMsgs
	}
	m["runtime.gc_pause_s"] = gcPause / tracedN
	m["trace.overhead_ratio"] = median(traced)/median(plain) - 1
	profileLayers(res, prof, tracedN)
	zeroUnused(m)
}

// zeroUnused sets every layer metric the workload has not filled to 0: the
// workload does not exercise that layer.
func zeroUnused(m map[string]float64) {
	for _, d := range layerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

// profileLayers writes the per-layer CPU seconds of the traced repeats and
// checks that the layers sum to the profiled total.
func profileLayers(res *result, prof *cpuProfiler, rounds float64) {
	a := prof.att
	m := res.metrics
	for _, l := range layerBuckets {
		m[l+".cpu_s"] = a.layers[l] / rounds
	}
	for _, name := range cumulativeFrames {
		m[name] = a.cumulative[name] / rounds
	}
	m["profile.cpu_s"] = a.total / rounds
	var sum float64
	for _, l := range layerBuckets {
		sum += a.layers[l]
	}
	if math.Abs(sum-a.total) > 1e-6*math.Max(1, a.total) {
		res.fail("profile: layer cpu_s sum %.6f != profiled total %.6f", sum, a.total)
	}
	if a.total <= 0 {
		res.fail("profile: no CPU samples in the traced rounds")
	}
}
