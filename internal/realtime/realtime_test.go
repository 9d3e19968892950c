package realtime

import (
	"context"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/queue"
)

func realSystem() core.Config {
	return core.Config{
		Name:         "real",
		LearningRate: 0.05,
		NewSelector:  func() grad.Selector { return grad.NewMaxN(100) },
		Batch:        core.BatchConfig{InitialLBS: 8},
		Sync:         core.SyncConfig{Mode: core.SyncAsync},
	}
}

// testData is the shared small Cipher workload of the real-mode tests.
func testData(name string) data.Config {
	return data.Config{Name: name, NumClasses: 3, Train: 240, Test: 60,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 21}
}

// testGroupConfig splits dc's training set over n shards and runs
// realSystem on every node.
func testGroupConfig(t *testing.T, dc data.Config, n int, dial func(id int) (Transport, error)) GroupConfig {
	t.Helper()
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return GroupConfig{N: n, System: realSystem(), Spec: nn.CipherSpec(1, 8, 8, 3, 5),
		Shards: shards, Dial: dial}
}

// brokerDial dials in-process broker transports.
func brokerDial(b *queue.Broker) func(id int) (Transport, error) {
	return func(id int) (Transport, error) { return NewBrokerTransport(b, id), nil }
}

// tcpDial dials TCP broker transports.
func tcpDial(addr string) func(id int) (Transport, error) {
	return func(id int) (Transport, error) { return NewClientTransport(addr, id) }
}

// newTestGroup builds a group, stopping it when the test ends.
func newTestGroup(t *testing.T, cfg GroupConfig) *Group {
	t.Helper()
	g, err := NewGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Stop(budget(5 * time.Second)) })
	return g
}

// runRealCluster trains an n-node group for d and returns its stopped
// nodes.
func runRealCluster(t *testing.T, n int, dial func(id int) (Transport, error), d time.Duration) []*Node {
	t.Helper()
	return runGroupFor(t, testGroupConfig(t, testData("rt"), n, dial), d)
}

// runGroupFor trains cfg's group for d and returns its stopped nodes.
func runGroupFor(t *testing.T, cfg GroupConfig, d time.Duration) []*Node {
	t.Helper()
	g := newTestGroup(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	g.Start(ctx)
	<-ctx.Done()
	if err := g.Stop(budget(5 * time.Second)); err != nil {
		t.Errorf("stop: %v", err)
	}
	return g.Nodes()
}

// budget scales test wall-time for the race detector's ~20x slowdown.
func budget(d time.Duration) time.Duration {
	if raceEnabled {
		return d * 6
	}
	return d
}

func TestRealModeInProcBroker(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	nodes := runRealCluster(t, 3, brokerDial(b), budget(2*time.Second))
	for i, nd := range nodes {
		s := nd.Worker().Stats()
		if s.Iters < 2 {
			t.Fatalf("node %d made only %d iterations", i, s.Iters)
		}
		if s.MsgsSent == 0 {
			t.Fatalf("node %d sent nothing", i)
		}
	}
	// cross-worker updates must have landed: peers' gradient messages are
	// recorded via sent bytes on both sides
	total := int64(0)
	for _, nd := range nodes {
		total += nd.Worker().Stats().BytesSent
	}
	if total == 0 {
		t.Fatal("no traffic")
	}
}

func TestRealModeTCPBroker(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nodes := runRealCluster(t, 2, tcpDial(srv.Addr()), budget(2*time.Second))
	for i, nd := range nodes {
		s := nd.Worker().Stats()
		if s.Iters < 1 {
			t.Fatalf("node %d made no progress", i)
		}
		// delivery, not just submission: a transport that wedges its sends
		// behind its own blocking pop passes every send-side assertion
		if s.MsgsRecvd == 0 {
			t.Fatalf("node %d never received a message over TCP", i)
		}
	}
}

func TestRealModeLearns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-dependent")
	}
	b := queue.NewBroker()
	defer b.Close()
	nodes := runRealCluster(t, 2, brokerDial(b), 3*time.Second)
	// training loss should have dropped below the ln(3)≈1.1 chance level
	for i, nd := range nodes {
		if l := nd.Worker().AvgRecentLoss(); l > 1.2 {
			t.Fatalf("node %d loss %.3f did not improve", i, l)
		}
	}
}

func TestNewNodeNilTransport(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("nil transport must error")
	}
}

func TestInspectRunsOnLoopAndFailsAfterStop(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	dc := data.Config{Name: "ins", NumClasses: 3, Train: 120, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Jitter: 0, Bumps: 3, Seed: 8}
	g := newTestGroup(t, testGroupConfig(t, dc, 2, brokerDial(b)))
	nodes := g.Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	g.Start(ctx)

	// Inspect must observe a quiescent worker and see training progress.
	deadline := time.Now().Add(budget(5 * time.Second))
	var iter int64
	for iter < 2 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached 2 iterations")
		}
		ictx, icancel := context.WithTimeout(ctx, budget(time.Second))
		err := nodes[0].Inspect(ictx, func(w *core.Worker) { iter = w.Iter() })
		icancel()
		if err != nil {
			t.Fatalf("inspect: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	g.Stop(budget(5 * time.Second))
	// After Run exits the node must refuse inspection rather than hang.
	if err := nodes[0].Inspect(context.Background(), func(*core.Worker) {}); err == nil {
		t.Fatal("Inspect after stop must fail")
	}
}
