package realtime

import (
	"testing"
	"time"

	"dlion/internal/obs"
	"dlion/internal/queue"
)

// TestRealModeObservability runs an instrumented two-node cluster over the
// in-process broker and checks the wall-clock phase breakdown and transfer
// counters accumulate. Runs under -race: the sinks are written from the
// event loop and the sender goroutines concurrently.
func TestRealModeObservability(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	b.SetMetrics(reg)

	const n = 2
	sinks := make([]*obs.WorkerObs, n)
	for i := range sinks {
		sinks[i] = obs.NewWorkerObs()
	}
	cfg := testGroupConfig(t, testData("rt"), n, brokerDial(b))
	cfg.Obs, cfg.Metrics = sinks, reg
	nodes := runGroupFor(t, cfg, budget(2*time.Second))

	for i, o := range sinks {
		w := o.Snapshot(i)
		if w.Phases["compute"] <= 0 {
			t.Fatalf("node %d: no compute time", i)
		}
		if w.Phases["serialize"] <= 0 {
			t.Fatalf("node %d: no serialize time", i)
		}
		if w.Phases["send"] <= 0 {
			t.Fatalf("node %d: no send time", i)
		}
		if w.SentMsgs["gradient"] <= 0 || w.RecvMsgs["gradient"] <= 0 {
			t.Fatalf("node %d: gradient traffic missing: %+v", i, w)
		}
		if nodes[i].Worker().Obs() != o {
			t.Fatalf("node %d: sink not attached to worker", i)
		}
	}
	snap := reg.Snapshot()
	if snap["queue.pushed"] <= 0 || snap["queue.popped"] <= 0 {
		t.Fatalf("broker metrics empty: %v", snap)
	}
}
