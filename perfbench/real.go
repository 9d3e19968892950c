package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/lineage"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/simcompute"
	"dlion/internal/simnet"
)

const real2Why = "real mode, 2 nodes over a loopback TCP broker, dense f32 gradients every step: wire encode/decode, queue and realtime take the largest share"

// real2 sizes the real-mode workload: n nodes exchanging full f32
// gradients under SyncFull + OrderedApply for a fixed number of steps.
var real2 = struct {
	n         int
	lbs       int
	steps     int64
	lr        float64
	timeout   time.Duration // a round that has not settled by then fails
	setupReps int           // set-ups per round (the median is reported)
	accFloor  float64
}{n: 2, lbs: 4, steps: 300, lr: 0.05, timeout: 60 * time.Second, setupReps: 5, accFloor: 0.5}

// real2System is the deterministic-math configuration both substrates
// agree on bit for bit: SyncFull, fixed batching, ordered apply.
func real2System() core.Config {
	return core.Config{
		Name:         "bench-real2-dense",
		LearningRate: real2.lr,
		NewSelector:  func() grad.Selector { return grad.Full{} },
		Sync:         core.SyncConfig{Mode: core.SyncFull},
		Batch:        core.BatchConfig{InitialLBS: real2.lbs},
		MaxIters:     real2.steps,
		OrderedApply: true,
	}
}

func real2Data(seed uint64) data.Config {
	return data.Config{Name: "real2", NumClasses: 3, Train: 960, Test: 128,
		Channels: 3, Height: 16, Width: 16, Noise: 0.4, Bumps: 3, Seed: seed}
}

// real2Spec follows cluster.Run's replica-init convention (seed + 1000), so
// the simulator reference starts from the same weights.
func real2Spec(seed uint64) nn.Spec { return nn.CipherSpec(3, 16, 16, 3, seed+1000) }

// realRound is one fixed-size real-mode training run.
type realRound struct {
	traced  bool
	setups  []float64 // each set-up: data, partition, broker, transports, nodes
	train   float64   // first Run call until every node settled
	allocMB float64
	peakMB  float64
	stats   []core.Stats
	digests []lineage.Hash
	ckpts   [][]byte
	drops   int64
	gauges  map[string]int64 // traced: gauge maxima by name
	phases  [obs.NumPhases]float64
	genS    float64
}

// wall is the round's run time: its last set-up plus training.
func (rd realRound) wall() float64 { return rd.setups[len(rd.setups)-1] + rd.train }

// runReal repeats the real-mode round for the measuring time, then checks
// every round's per-worker digests against cluster.Run on the same
// ordered configuration.
func runReal(o opts) (*result, error) {
	res := newResult()
	var tr *tracer
	var prof *cpuProfiler
	sel := &selectorStats{}
	xport := &transportStats{}
	if o.trace {
		tr = newTracer()
		prof = newCPUProfiler()
	}
	var rounds []realRound
	var rd realRound
	gcPause, err := measureRounds(o, prof, func(i int, traced bool) (float64, error) {
		var err error
		if traced {
			rd, err = realRoundRun(o.seed, tr, sel, xport)
		} else {
			rd, err = realRoundRun(o.seed, nil, nil, nil)
		}
		return rd.wall(), err
	}, func(m roundMeta) {
		rd.traced, rd.allocMB, rd.peakMB = m.traced, m.allocMB, m.peakMB
		rounds = append(rounds, rd)
	})
	if err != nil {
		return nil, err
	}

	// Correctness, outside the timed window: the simulator replays the
	// same ordered configuration and every round must match it bit for bit.
	ref, err := real2Reference(o.seed)
	if err != nil {
		return nil, err
	}
	test := testSet(o.seed)
	var accs []float64
	for ri, rd := range rounds {
		for _, st := range rd.stats {
			res.attempted += st.MsgsSent
		}
		res.failed += rd.drops
		ok := len(rd.digests) == len(ref)
		for w := 0; ok && w < len(ref); w++ {
			ok = rd.digests[w] == ref[w]
		}
		if !ok {
			res.fail("real2-dense: round %d digests %v != cluster.Run digests %v (traced=%t)", ri, rd.digests, ref, rd.traced)
			res.failed++
		}
		if ri > 0 && !equalStats(rd.stats, rounds[0].stats) {
			res.fail("real2-dense: round %d worker stats differ from round 0 (traced=%t)", ri, rd.traced)
			res.failed++
		}
		acc, err := meanAccuracy(real2Spec(o.seed), rd.ckpts, test)
		if err != nil {
			return nil, err
		}
		if !(acc >= real2.accFloor) {
			res.fail("real2-dense: round %d final accuracy %.4f below floor %.2f", ri, acc, real2.accFloor)
			res.failed++
		}
		accs = append(accs, acc)
	}
	if o.trace {
		realLayers(res, rounds, sel, xport, prof, gcPause)
		res.spans, res.dropped = tr.snapshot()
		return res, nil
	}
	var setup, run, sps, alloc, peak, ms, ips []float64
	for _, rd := range rounds {
		var samples, iters int64
		for _, st := range rd.stats {
			samples += st.SamplesProcessed
			iters += st.Iters
		}
		setup = append(setup, rd.setups...)
		run = append(run, rd.wall())
		sps = append(sps, float64(samples)/rd.train)
		alloc = append(alloc, rd.allocMB)
		peak = append(peak, rd.peakMB)
		ms = append(ms, rd.wall()*1000)
		ips = append(ips, float64(iters)/rd.train)
	}
	m := res.metrics
	m["setup_s"] = median(setup)
	m["run_s"] = median(run)
	m["samples_per_s"] = median(sps)
	m["final_acc"] = median(accs)
	m["alloc_mb"] = median(alloc)
	m["peak_rss_mb"] = median(peak)
	m["p50_ms"] = median(ms)
	m["p99_ms"] = tailAt(ms, 0.99)
	m["max_rps"] = median(ips)
	res.timings["setup_s"] = summarize(setup)
	res.timings["run_ms"] = summarize(ms)
	return res, nil
}

// realSetup is one stood-up real-mode cluster: a broker, its TCP server
// and n nodes with their transports.
type realSetup struct {
	b       *queue.Broker
	srv     *queue.Server
	xports  []realtime.Transport
	nodes   []*realtime.Node
	reg     *obs.Registry
	wobs    []*obs.WorkerObs
	seconds float64 // wall time of the set-up
	genS    float64 // of which data.Generate
}

// close tears the cluster down; nodes must not be running.
func (s *realSetup) close() {
	for _, t := range s.xports {
		t.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.b.Close()
}

// setUpReal generates the data, partitions it, and stands up the broker,
// its TCP server, the transports and the nodes. With a tracer it also
// wraps the selectors and transports and turns on the nodes' phase
// recorders and the broker's counters.
func setUpReal(seed uint64, tr *tracer, parent int, sel *selectorStats, xport *transportStats) (*realSetup, error) {
	traced := tr != nil
	t0 := time.Now()
	s := &realSetup{b: queue.NewBroker(), reg: obs.NewRegistry(), wobs: make([]*obs.WorkerObs, real2.n)}
	var train *data.Dataset
	var err error
	tr.do("data.Generate", parent, func() { train, _, err = data.Generate(real2Data(seed)) })
	s.genS = time.Since(t0).Seconds()
	if err != nil {
		s.close()
		return nil, err
	}
	var shards []*data.Shard
	tr.do("data.Partition", parent, func() { shards, err = data.Partition(train, real2.n, seed) })
	if err != nil {
		s.close()
		return nil, err
	}
	if traced {
		s.b.SetMetrics(s.reg)
	}
	tr.do("queue.Serve", parent, func() { s.srv, err = queue.Serve(s.b, "127.0.0.1:0") })
	if err != nil {
		s.close()
		return nil, err
	}
	sys := real2System()
	if traced {
		sys.NewSelector = traceSelector(sys.NewSelector, sel, tr)
	}
	s.nodes = make([]*realtime.Node, real2.n)
	for i := range s.nodes {
		var t realtime.Transport
		tr.do("realtime.NewClientTransport", parent, func() { t, err = realtime.NewClientTransport(s.srv.Addr(), i) })
		if err != nil {
			s.close()
			return nil, err
		}
		s.xports = append(s.xports, t)
		cfg := realtime.Config{ID: i, N: real2.n, System: sys, Spec: real2Spec(seed),
			Shard: shards[i], Transport: t, Metrics: s.reg}
		if traced {
			s.wobs[i] = obs.NewWorkerObs()
			cfg.Obs = s.wobs[i]
			cfg.Transport = &tracedTransport{inner: t, st: xport, tr: tr}
		}
		tr.do("realtime.NewNode", parent, func() { s.nodes[i], err = realtime.NewNode(cfg) })
		if err != nil {
			s.close()
			return nil, err
		}
	}
	s.seconds = time.Since(t0).Seconds()
	return s, nil
}

// realRoundRun sets the cluster up real2.setupReps times (keeping the
// last), trains until every node spent its step budget and heard every
// peer's last gradient, and snapshots the replicas.
func realRoundRun(seed uint64, tr *tracer, sel *selectorStats, xport *transportStats) (realRound, error) {
	var rd realRound
	root := tr.open("real2.round", 0)
	defer tr.close(root)
	var s *realSetup
	for r := 0; r < real2.setupReps; r++ {
		if s != nil {
			s.close()
		}
		id := tr.open("real2.setup", root)
		var err error
		s, err = setUpReal(seed, tr, id, sel, xport)
		tr.close(id)
		if err != nil {
			return rd, err
		}
		rd.setups = append(rd.setups, s.seconds)
	}
	defer s.close()
	rd.genS = s.genS

	// Train: the round ends when every node spent its budget and received
	// each peer's gradient for every step — (n-1)·steps messages, the only
	// traffic this configuration sends.
	ctx, cancel := context.WithTimeout(context.Background(), real2.timeout)
	defer cancel()
	runCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	runErr := make(chan error, real2.n)
	t1 := time.Now()
	runSpan := tr.open("realtime.Node.Run", root)
	for _, nd := range s.nodes {
		wg.Add(1)
		go func(nd *realtime.Node) {
			defer wg.Done()
			if err := nd.Run(runCtx); err != nil {
				runErr <- err
			}
		}(nd)
	}
	defer func() {
		stop()
		wg.Wait()
	}()
	want := int64(real2.n-1) * real2.steps
	rd.digests = make([]lineage.Hash, real2.n)
	rd.ckpts = make([][]byte, real2.n)
	rd.stats = make([]core.Stats, real2.n)
	for i, nd := range s.nodes {
		for {
			var done bool
			if err := nd.Inspect(ctx, func(w *core.Worker) {
				done = w.Iter() == real2.steps && w.Stats().MsgsRecvd == want
				if done {
					rd.digests[i] = lineage.ModelHash(w.Model())
					rd.ckpts[i] = w.Model().Checkpoint()
					rd.stats[i] = w.Stats()
				}
			}); err != nil {
				return rd, fmt.Errorf("real2-dense: node %d did not settle: %w", i, err)
			}
			if done {
				break
			}
			select {
			case err := <-runErr:
				return rd, fmt.Errorf("real2-dense: node: %w", err)
			case <-time.After(time.Millisecond):
			}
		}
	}
	rd.train = time.Since(t1).Seconds()
	tr.close(runSpan)
	rd.drops = s.reg.Counter("realtime.fifo_drops").Load()
	if tr != nil {
		rd.gauges = map[string]int64{
			"queue.list_depth":          s.reg.Gauge("queue.list_depth").Max(),
			"realtime.send_queue_depth": s.reg.Gauge("realtime.send_queue_depth").Max(),
		}
		for _, o := range s.wobs {
			for p := obs.Phase(0); p < obs.NumPhases; p++ {
				rd.phases[p] += o.PhaseSeconds(p)
			}
		}
	}
	return rd, nil
}

// real2Reference runs the same ordered configuration on the simulator and
// returns its per-worker digests.
func real2Reference(seed uint64) ([]lineage.Hash, error) {
	horizon := float64(real2.steps)*2 + 20
	comps := make([]*simcompute.Compute, real2.n)
	for i := range comps {
		comps[i] = simcompute.New(simcompute.Constant(12),
			simcompute.CostModel{Overhead: 0.05, PerSample: 0.5}, uint64(i))
	}
	r, err := cluster.Run(cluster.Config{
		System:     real2System(),
		Model:      real2Spec(0), // cluster.Run sets the replica seed to Seed+1000
		Data:       real2Data(seed),
		N:          real2.n,
		Computes:   comps,
		Network:    simnet.Uniform(real2.n, simcompute.Constant(200), 0.001),
		Horizon:    horizon,
		EvalPeriod: horizon,
		Seed:       seed,
	})
	if err != nil {
		return nil, fmt.Errorf("real2-dense reference: %w", err)
	}
	out := make([]lineage.Hash, len(r.Models))
	for i, m := range r.Models {
		if r.Iters[i] != real2.steps {
			return nil, fmt.Errorf("real2-dense reference: worker %d ran %d/%d steps", i, r.Iters[i], real2.steps)
		}
		out[i] = lineage.ModelHash(m)
	}
	return out, nil
}

// testSet regenerates the real2 test split.
func testSet(seed uint64) *data.Dataset {
	_, test := data.MustGenerate(real2Data(seed))
	return test
}

// meanAccuracy restores each checkpoint into a fresh replica and returns
// the mean test accuracy.
func meanAccuracy(spec nn.Spec, ckpts [][]byte, test *data.Dataset) (float64, error) {
	var sum float64
	for _, c := range ckpts {
		m := spec.Build()
		if err := m.Restore(c); err != nil {
			return 0, err
		}
		acc, _ := m.Evaluate(test, 64)
		sum += acc
	}
	return sum / float64(len(ckpts)), nil
}

func equalStats(a, b []core.Stats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// realLayers fills the per-layer metrics, per traced round.
func realLayers(res *result, rounds []realRound, sel *selectorStats, xp *transportStats, prof *cpuProfiler, gcPause float64) {
	var traced, plain []float64
	var n float64
	var iters, gradMsgs, msgs, drops, gen float64
	var phases [obs.NumPhases]float64
	gauges := map[string]float64{}
	for _, rd := range rounds {
		if !rd.traced {
			plain = append(plain, rd.wall())
			continue
		}
		traced = append(traced, rd.wall())
		n++
		for _, st := range rd.stats {
			iters += float64(st.Iters)
			gradMsgs += float64(st.GradMsgsSent)
			msgs += float64(st.MsgsSent)
		}
		drops += float64(rd.drops)
		gen += rd.genS
		for p := range phases {
			phases[p] += rd.phases[p]
		}
		for k, v := range rd.gauges {
			if float64(v) > gauges[k] {
				gauges[k] = float64(v)
			}
		}
	}
	m := res.metrics
	m["core.iters"] = iters / n
	m["core.grad_msgs"] = gradMsgs / n
	m["core.msgs_sent"] = msgs / n
	m["core.compute_s"] = phases[obs.PhaseCompute] / n
	m["core.recv_wait_s"] = phases[obs.PhaseRecvWait] / n
	m["core.apply_s"] = phases[obs.PhaseApply] / n
	m["grad.select_calls"] = float64(sel.calls.Load()) / n
	m["grad.select_s"] = float64(sel.ns.Load()) / 1e9 / n
	m["grad.selected_mb"] = float64(sel.bytes.Load()) / (1 << 20) / n
	if gradMsgs > 0 {
		m["grad.selects_per_grad_msg"] = float64(sel.calls.Load()) / gradMsgs
	}
	sendS := float64(xp.sendNS.Load()) / 1e9
	sendMB := float64(xp.sendBytes.Load()) / (1 << 20)
	m["wire.msgs"] = float64(xp.sends.Load()) / n
	m["wire.mb"] = sendMB / n
	m["queue.send_calls"] = float64(xp.sends.Load()) / n
	m["queue.send_s"] = sendS / n
	m["queue.recv_wait_s"] = float64(xp.recvNS.Load()) / 1e9 / n
	if sendS > 0 {
		m["queue.send_mb_per_s"] = sendMB / sendS
	}
	m["queue.depth_max"] = gauges["queue.list_depth"]
	m["queue.errors"] = float64(xp.sendErrs.Load()) / n
	m["realtime.fifo_drops"] = drops / n
	m["realtime.send_queue_depth_max"] = gauges["realtime.send_queue_depth"]
	m["data.generate_s"] = gen / n
	m["runtime.gc_pause_s"] = gcPause / n
	m["trace.overhead_ratio"] = median(traced)/median(plain) - 1
	profileLayers(res, prof, n)
	zeroUnused(m)
}
