package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
	"dlion/internal/serve"
	"dlion/internal/tensor"
)

const serveWhy = "serve.Server, f32 replicas, in-process ServeHTTP: open-loop single-sample predicts at fixed rates while new checkpoints Publish on a fixed period"

// serveW sizes the serving workload. The generator is an open loop of
// independent single-sample predicts: each offered rate runs for one phase,
// and p50/p99 are reported at the last (highest) rate.
var serveW = struct {
	rates        []float64       // offered requests per second, ascending
	phases       []time.Duration // time spent at each rate
	limitMS      float64         // latency limit on p99, from each request's due time
	publishEvery time.Duration   // period of checkpoint publishes during a sweep
	versions     int             // distinct checkpoints the publisher cycles through
	pretrain     int             // SGD steps before the first checkpoint
	versionGap   int             // SGD steps between consecutive checkpoints
	setupReps    int             // set-ups per round (the median is reported)
	maxBatch     int
	// maxDelay is how long a runner holds an underfull batch open. At 10 ms
	// the batch window, not host scheduling stalls, sets most of the
	// latency, which keeps p99 steady run to run on a shared 2-core host
	// (with the 2 ms default, p99 spread 0.3 to 0.5 of its median over six
	// seeds). The rates stay well below capacity for the same reason: at a
	// top rate of 1000 req/s the process needs more than a core, and p99
	// spread 0.47 over ten seeds; at 400 req/s, 0.10 over six.
	maxDelay time.Duration
	accFloor float64
}{
	rates:        []float64{100, 200, 400},
	phases:       []time.Duration{500 * time.Millisecond, 500 * time.Millisecond, 2500 * time.Millisecond},
	limitMS:      50,
	publishEvery: time.Second, versions: 6, pretrain: 150, versionGap: 10,
	setupReps: 20, maxBatch: 32, maxDelay: 10 * time.Millisecond, accFloor: 0.5,
}

func serveData(seed uint64) data.Config {
	return data.Config{Name: "serve", NumClasses: 10, Train: 2000, Test: 400,
		Channels: 3, Height: 16, Width: 16, Noise: 0.4, Bumps: 3, Seed: seed}
}

func serveSpec(seed uint64) nn.Spec { return nn.CipherSpec(3, 16, 16, 10, seed+1000) }

// serveInputs is everything generated from the seed before any timing:
// the checkpoints to publish, one encoded request body per test sample,
// and the class each checkpoint assigns to each sample offline.
type serveInputs struct {
	spec     nn.Spec
	ckpts    [][]byte
	bodies   [][]byte
	labels   []int
	expected [][]int // [version][sample] class from an offline Forward
}

func makeServeInputs(seed uint64) (*serveInputs, error) {
	train, test, err := data.Generate(serveData(seed))
	if err != nil {
		return nil, err
	}
	shards, err := data.Partition(train, 1, seed)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{spec: serveSpec(seed)}
	m := in.spec.Build()
	step := func(k int) {
		for i := 0; i < k; i++ {
			x, y := shards[0].NextBatch(32)
			m.TrainStep(x, y)
			m.ApplySGD(0.05)
		}
	}
	step(serveW.pretrain)
	for v := 0; v < serveW.versions; v++ {
		if v > 0 {
			step(serveW.versionGap)
		}
		in.ckpts = append(in.ckpts, m.Checkpoint())
	}
	n := test.Len()
	for i := 0; i < n; i++ {
		body, err := json.Marshal(serve.PredictRequest{Inputs: [][]float32{test.Image(i)}})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.labels = append(in.labels, test.Label(i))
	}
	// Offline reference: one Forward per version over the whole test set.
	for _, c := range in.ckpts {
		ref := in.spec.Build()
		if err := ref.Restore(c); err != nil {
			return nil, err
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		x, _ := test.Batch(all)
		logits := ref.Forward(x)
		in.expected = append(in.expected, argmaxRows(logits))
	}
	return in, nil
}

// argmaxRows returns the index of the largest logit of each row.
func argmaxRows(t *tensor.Tensor) []int {
	rows, cols := t.Shape[0], t.Len()/t.Shape[0]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		best := 0
		for c, v := range row {
			if v > row[best] {
				best = c
			}
		}
		out[r] = best
	}
	return out
}

// serveOp is one request's outcome.
type serveOp struct {
	latency float64 // seconds from due time to response
	done    time.Time
	status  int
	seq     int64
	class   int
	sample  int
	body    []byte // response body until decoded
}

// serveRound is one set-up plus one sweep over every rate.
type serveRound struct {
	traced    bool
	setups    []float64
	sweep     float64 // first due time to last response
	ops       [][]serveOp
	phaseT0   []time.Time
	late      []float64
	allocMB   float64
	peakMB    float64
	publishes int
	publishS  float64
	swaps     int64
	fill      float64 // traced: mean executed batch size
	serverP99 float64 // traced: server-side latency p99, ms
	sheds     int64
}

func runServe(o opts) (*result, error) {
	in, err := makeServeInputs(o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var tr *tracer
	var prof *cpuProfiler
	if o.trace {
		tr = newTracer()
		prof = newCPUProfiler()
	}
	var rounds []serveRound
	var rd serveRound
	gcPause, err := measureRounds(o, prof, func(i int, traced bool) (float64, error) {
		rt := tr
		if !traced {
			rt = nil
		}
		var err error
		rd, err = serveRoundRun(in, o.seed+uint64(i), rt)
		return rd.sweep, err
	}, func(m roundMeta) {
		rd.traced, rd.allocMB, rd.peakMB = m.traced, m.allocMB, m.peakMB
		top := rateStats([]serveRound{rd}, len(serveW.rates)-1)
		fmt.Fprintf(os.Stderr, "serve-swap round %d: traced=%t top-rate p50 %.2fms p99 %.2fms swaps %d alloc %.0fMB peak %.0fMB\n",
			len(rounds), rd.traced, top.p50, top.p99, rd.swaps, rd.allocMB, rd.peakMB)
		rounds = append(rounds, rd)
	})
	if err != nil {
		return nil, err
	}
	acc := checkServe(res, in, rounds)
	if o.trace {
		serveLayers(res, rounds, prof, gcPause)
		res.spans, res.dropped = tr.snapshot()
	} else {
		serveE2E(res, rounds, acc)
	}
	return res, nil
}

// serveRoundRun sets the server up serveW.setupReps times (keeping the
// last), then sweeps the offered rates while a publisher swaps in a new
// checkpoint every publishEvery. offset rotates which test samples the
// requests carry.
func serveRoundRun(in *serveInputs, offset uint64, tr *tracer) (serveRound, error) {
	var rd serveRound
	root := tr.open("serve.round", 0)
	defer tr.close(root)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var registry *serve.Registry
	var srv *serve.Server
	for r := 0; r < serveW.setupReps; r++ {
		if srv != nil {
			if err := srv.Shutdown(context.Background()); err != nil {
				return rd, err
			}
		}
		id := tr.open("serve.setup", root)
		t0 := time.Now()
		registry = serve.NewRegistry(in.spec)
		if err := registry.Publish(1, "bench", in.ckpts[0]); err != nil {
			return rd, err
		}
		var err error
		srv, err = serve.NewServer(serve.Config{Registry: registry, MaxBatch: serveW.maxBatch,
			MaxDelay: serveW.maxDelay, Metrics: reg})
		if err != nil {
			return rd, err
		}
		rd.setups = append(rd.setups, time.Since(t0).Seconds())
		tr.close(id)
	}

	// Publisher: a new version every period until the sweep ends.
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	var pubErr error
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		tick := time.NewTicker(serveW.publishEvery)
		defer tick.Stop()
		seq := int64(1)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			seq++
			id := tr.open("serve.Registry.Publish", root)
			t0 := time.Now()
			err := registry.Publish(seq, "bench", in.ckpts[versionOf(seq)])
			rd.publishS += time.Since(t0).Seconds()
			tr.close(id)
			rd.publishes++
			if err != nil {
				pubErr = err
				return
			}
		}
	}()

	n := len(in.bodies)
	next := int(offset % uint64(n))
	sweepStart := time.Now()
	var last time.Time
	for k, rate := range serveW.rates {
		count := int(rate * serveW.phases[k].Seconds())
		ops := make([]serveOp, count)
		phaseSpan := tr.open(fmt.Sprintf("loadgen.rate_%g", rate), root)
		t0 := time.Now()
		first := next
		late := openLoop(t0, rate, count, func(i int, due time.Time) {
			j := (first + i) % n
			id := tr.open("serve.ServeHTTP", phaseSpan)
			req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(in.bodies[j]))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			done := time.Now()
			tr.close(id)
			// The body is decoded after the sweep, so the generator adds
			// no work beside the server's while the clock runs.
			ops[i] = serveOp{latency: done.Sub(due).Seconds(), done: done, status: rec.Code,
				sample: j, class: -1, body: rec.Body.Bytes()}
		})
		tr.close(phaseSpan)
		next = (first + count) % n
		for _, op := range ops {
			if op.done.After(last) {
				last = op.done
			}
		}
		rd.ops = append(rd.ops, ops)
		rd.phaseT0 = append(rd.phaseT0, t0)
		rd.late = append(rd.late, late...)
	}
	rd.sweep = last.Sub(sweepStart).Seconds()
	close(stop)
	for _, ops := range rd.ops {
		for i := range ops {
			op := &ops[i]
			var resp serve.PredictResponse
			if op.status == http.StatusOK && json.Unmarshal(op.body, &resp) == nil && len(resp.Predictions) == 1 {
				op.seq, op.class = resp.ModelSeq, resp.Predictions[0].Class
			}
			op.body = nil
		}
	}
	pubWG.Wait()
	if pubErr != nil {
		return rd, fmt.Errorf("serve-swap: publish: %w", pubErr)
	}
	rd.swaps = registry.Swaps()
	if err := srv.Shutdown(context.Background()); err != nil {
		return rd, err
	}
	if reg != nil {
		rd.fill = reg.Histogram("serve.batch_fill").Mean()
		rd.serverP99 = reg.Histogram("serve.latency").Quantile(0.99) * 1000
		rd.sheds = reg.Counter("serve.sheds").Load()
	}
	return rd, nil
}

// versionOf maps a published sequence number to the checkpoint it carries.
func versionOf(seq int64) int { return int((seq - 1) % int64(serveW.versions)) }

// checkServe verifies every request: a 200 whose class equals the offline
// Forward of the version its model_seq names. Anything else is a failed
// operation; a request that was dispatched but never answered cannot
// occur, since ServeHTTP returns only after answering. It returns the share
// of answers whose class is the label, which must reach the floor.
func checkServe(res *result, in *serveInputs, rounds []serveRound) (acc float64) {
	var bad, wrong, right int64
	for _, rd := range rounds {
		for _, ops := range rd.ops {
			for _, op := range ops {
				res.attempted++
				switch {
				case op.status != http.StatusOK:
					bad++
				case op.seq < 1 || op.class != in.expected[versionOf(op.seq)][op.sample]:
					wrong++
				case op.class == in.labels[op.sample]:
					right++
				}
			}
		}
	}
	res.failed += bad + wrong
	if answered := res.attempted - bad; answered > 0 {
		acc = float64(right) / float64(answered)
	}
	if !(acc >= serveW.accFloor) {
		res.fail("serve-swap: accuracy of the answers %.4f below floor %.2f", acc, serveW.accFloor)
	}
	if bad > 0 {
		res.fail("serve-swap: %d requests answered with a non-200 status", bad)
	}
	if wrong > 0 {
		res.fail("serve-swap: %d predictions differ from an offline Forward of their model_seq", wrong)
	}
	return acc
}

// rateSummary is one offered rate over a run's rounds. Each round is
// summarised on its own and the run reports the median over rounds, so one
// round caught by a host stall does not set the run's tail.
type rateSummary struct {
	pooled   []float64 // every latency (ms), for the printed table
	p50, p99 float64   // medians over rounds of each round's p50 and p99 (ms)
	lastTail float64   // median over rounds of the last tenth's median (ms)
	achieved float64   // median over rounds of answers per second, phase start to last answer
}

func rateStats(rounds []serveRound, k int) rateSummary {
	var sum rateSummary
	var p50s, p99s, tails, rates []float64
	for _, rd := range rounds {
		ops := rd.ops[k]
		lat := make([]float64, len(ops))
		var last time.Time
		for i, op := range ops {
			lat[i] = op.latency * 1000
			if op.done.After(last) {
				last = op.done
			}
		}
		sum.pooled = append(sum.pooled, lat...)
		p50s = append(p50s, median(lat))
		p99s = append(p99s, tailAt(lat, 0.99))
		tails = append(tails, median(lat[len(lat)*9/10:]))
		if d := last.Sub(rd.phaseT0[k]).Seconds(); d > 0 {
			rates = append(rates, float64(len(ops))/d)
		}
	}
	sum.p50, sum.p99 = median(p50s), median(p99s)
	sum.lastTail, sum.achieved = median(tails), median(rates)
	return sum
}

// serveE2E fills the end-to-end metrics from the untraced rounds.
func serveE2E(res *result, rounds []serveRound, acc float64) {
	var setups, sweeps, sps, alloc, peak []float64
	for _, rd := range rounds {
		setups = append(setups, rd.setups...)
		sweeps = append(sweeps, rd.sweep)
		var ok float64
		for _, ops := range rd.ops {
			for _, op := range ops {
				if op.status == http.StatusOK {
					ok++
				}
			}
		}
		sps = append(sps, ok/rd.sweep)
		alloc = append(alloc, rd.allocMB)
		peak = append(peak, rd.peakMB)
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	m["run_s"] = median(sweeps)
	m["samples_per_s"] = median(sps)
	m["final_acc"] = acc
	m["alloc_mb"] = median(alloc)
	m["peak_rss_mb"] = median(peak)
	m["max_rps"] = 0
	for k, rate := range serveW.rates {
		rs := rateStats(rounds, k)
		// Meets the limit: p99 within it, and no growing backlog — the
		// last tenth of the phase is answered within the limit too.
		if rs.p99 <= serveW.limitMS && rs.lastTail <= serveW.limitMS {
			m["max_rps"] = rs.achieved
		}
		m["p50_ms"], m["p99_ms"] = rs.p50, rs.p99 // the last, highest rate's
		res.timings[fmt.Sprintf("latency_ms@%g", rate)] = summarize(rs.pooled)
	}
	res.timings["setup_s"] = summarize(setups)
}

// serveLayers fills the per-layer metrics, per traced round.
func serveLayers(res *result, rounds []serveRound, prof *cpuProfiler, gcPause float64) {
	var late []float64
	var n, fill, p99, sheds, swaps, pubS, pubs float64
	var tracedRounds, plainRounds []serveRound
	for _, rd := range rounds {
		for _, l := range rd.late {
			late = append(late, l*1000)
		}
		if !rd.traced {
			plainRounds = append(plainRounds, rd)
			continue
		}
		tracedRounds = append(tracedRounds, rd)
		n++
		fill += rd.fill
		p99 += rd.serverP99
		sheds += float64(rd.sheds)
		swaps += float64(rd.swaps)
		pubS += rd.publishS
		pubs += float64(rd.publishes)
	}
	m := res.metrics
	m["serve.batch_fill_mean"] = fill / n
	m["serve.server_p99_ms"] = p99 / n
	m["serve.shed"] = sheds / n
	m["serve.swaps"] = swaps / n
	if pubs > 0 {
		m["serve.publish_s"] = pubS / pubs
	}
	m["loadgen.late_p99_ms"] = tailAt(late, 0.99)
	m["runtime.gc_pause_s"] = gcPause / n
	// A sweep's wall time is fixed by its schedule, so the overhead is
	// read from the median request latency at the top rate instead.
	top := len(serveW.rates) - 1
	m["trace.overhead_ratio"] = rateStats(tracedRounds, top).p50/rateStats(plainRounds, top).p50 - 1
	res.timings["loadgen.late_ms"] = summarize(late)
	profileLayers(res, prof, n)
	zeroUnused(m)
}
