package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfLeafMostDlionFrame(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"memmove under simclock", []string{
			"runtime.memmove",
			"dlion/internal/simclock.(*calQueue).popFront",
			"dlion/internal/simclock.(*Engine).Run",
			"dlion/internal/cluster.Run",
			"main.runSim",
		}, "simclock"},
		{"GC worker with no dlion caller", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, "runtime"},
		{"syscall under queue", []string{
			"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write",
			"dlion/internal/queue.(*Client).LPush", "dlion/internal/realtime.(*Node).sendLoop",
		}, "queue"},
		{"inlined closure", []string{
			"dlion/internal/core.(*Worker).HandleMessage.func1", "dlion/internal/cluster.(*delivery).Fire",
		}, "core"},
		{"unnamed dlion package", []string{
			"dlion/internal/simnet.(*Network).Link", "dlion/internal/cluster.(*simEnv).Send",
		}, "other"},
		{"benchmark's own frame", []string{
			"encoding/json.Marshal", "main.serveRoundRun.func2", "main.openLoop.func1",
		}, "bench"},
		{"dlion below benchmark", []string{
			"runtime.mallocgc", "dlion/internal/serve.(*Server).ServeHTTP", "main.serveRoundRun.func2",
		}, "serve"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributionSumsToTotal(t *testing.T) {
	a := newAttribution()
	a.add([]cpuSample{
		{[]string{"runtime.memmove", "dlion/internal/simclock.(*calQueue).push"}, 0.03},
		{[]string{"runtime.gcBgMarkWorker"}, 0.01},
		{[]string{"dlion/internal/tensor.MatMul", "dlion/internal/nn.(*Dense).Forward",
			"dlion/internal/nn.(*Model).Evaluate", "dlion/internal/nn.(*Model).Evaluate"}, 0.02},
		{[]string{"dlion/internal/wire.Encode", "dlion/internal/realtime.realEnv.Send"}, 0.04},
	})
	var sum float64
	for _, l := range layerBuckets {
		sum += a.layers[l]
	}
	if math.Abs(sum-a.total) > 1e-12 || math.Abs(a.total-0.10) > 1e-12 {
		t.Errorf("layers sum to %g, total %g, want both 0.10", sum, a.total)
	}
	want := map[string]float64{"simclock": 0.03, "runtime": 0.01, "tensor": 0.02, "wire": 0.04}
	for l, v := range want {
		if math.Abs(a.layers[l]-v) > 1e-12 {
			t.Errorf("layer %s = %g, want %g", l, a.layers[l], v)
		}
	}
	// Recursion must not count a sample twice in a cumulative metric.
	if got := a.cumulative["nn.eval_cpu_s"]; math.Abs(got-0.02) > 1e-12 {
		t.Errorf("nn.eval_cpu_s = %g, want 0.02", got)
	}
	if got := a.cumulative["wire.encode_cpu_s"]; math.Abs(got-0.04) > 1e-12 {
		t.Errorf("wire.encode_cpu_s = %g, want 0.04", got)
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestParseCPUProfileOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	found := false
	for _, s := range samples {
		total += s.seconds
		for _, fn := range s.stack {
			if fn == "dlion/perfbench.spin" || fn == "main.spin" {
				found = true
			}
		}
	}
	if total < 0.1 || !found {
		t.Errorf("parsed %d samples, %.3fs CPU, spin frame found=%t", len(samples), total, found)
	}
}

func TestWalkProtoRejectsTruncatedInput(t *testing.T) {
	// field 2, length-delimited, length 5, but only 2 bytes follow
	if err := walkProto([]byte{0x12, 0x05, 0x01, 0x02}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated message accepted")
	}
}
