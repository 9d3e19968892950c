package realtime

import (
	"context"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/obs"
	"dlion/internal/queue"
)

// Elastic membership over wall-clock time: graceful leaves must flush every
// queued frame, joins must complete through a real transport, and a broker
// restart in the middle of the admission handshake must be survivable.

// elasticConfig describes an n-slot real-mode cluster where ids < founders
// are founders and the rest are joiners sponsored by worker 0. Joiners
// begin their handshake immediately on Start.
func elasticConfig(t *testing.T, n, founders int, dial func(id int) (Transport, error), reg *obs.Registry) GroupConfig {
	t.Helper()
	roster := make([]int, founders)
	for i := range roster {
		roster[i] = i
	}
	cfg := testGroupConfig(t, testData("rt-elastic"), n, dial)
	cfg.PerWorker = func(id int, sys core.Config) core.Config {
		if id < founders {
			sys.Membership = core.MembershipConfig{InitialMembers: roster}
		} else {
			sys.Membership = core.MembershipConfig{Join: true, Sponsor: 0,
				JoinTimeout: budget(60 * time.Second).Seconds(),
				JoinRetry:   0.2}
		}
		return sys
	}
	cfg.Metrics = reg
	return cfg
}

// inspectWorker reads one loop-owned value off a live node, failing the
// test if the node refuses inspection.
func inspectWorker(t *testing.T, n *Node, fn func(w *core.Worker)) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget(5*time.Second))
	defer cancel()
	if err := n.Inspect(ctx, fn); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func waitForCond(t *testing.T, stage string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget(20 * time.Second))
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never reached", stage)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGracefulLeaveFlushesEverything: a leaving node must drain its
// outbound queues — tombstones included — before the call returns, the
// survivors must renormalize onto the reduced roster, and nothing may be
// shed on the way out.
func TestGracefulLeaveFlushesEverything(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	reg := obs.NewRegistry()
	g := newTestGroup(t, elasticConfig(t, 3, 3, brokerDial(b), reg))
	nodes := g.Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.Start(ctx)

	// let the full roster train together first
	waitForCond(t, "initial training", func() bool {
		ok := true
		for _, nd := range nodes {
			var it int64
			inspectWorker(t, nd, func(w *core.Worker) { it = w.Iter() })
			ok = ok && it >= 2
		}
		return ok
	})

	lctx, lcancel := context.WithTimeout(ctx, budget(10*time.Second))
	defer lcancel()
	if err := nodes[2].Leave(lctx, budget(10*time.Second)); err != nil {
		t.Fatalf("graceful leave dropped frames: %v", err)
	}
	var st core.MemberState
	inspectWorker(t, nodes[2], func(w *core.Worker) { st = w.State() })
	if st != core.StateLeft {
		t.Fatalf("leaver state %v, want left", st)
	}

	// survivors must process the tombstone and shrink to {0, 1}
	waitForCond(t, "tombstone processed", func() bool {
		ok := true
		for _, nd := range nodes[:2] {
			var members []int
			inspectWorker(t, nd, func(w *core.Worker) { members = w.Members() })
			ok = ok && len(members) == 2 && members[0] == 0 && members[1] == 1
		}
		return ok
	})
	// and keep training on the reduced roster
	var itersAfter int64
	inspectWorker(t, nodes[0], func(w *core.Worker) { itersAfter = w.Iter() })
	waitForCond(t, "post-leave training", func() bool {
		var it int64
		inspectWorker(t, nodes[0], func(w *core.Worker) { it = w.Iter() })
		return it > itersAfter
	})

	cancel()
	g.Stop(budget(5 * time.Second))
	if drops := reg.Counter("realtime.fifo_drops").Load(); drops != 0 {
		t.Fatalf("%d frames shed during the run; a graceful leave must drop none", drops)
	}
}

// TestJoinOverRealTransport: a joiner admitted through the in-process
// broker must converge onto the founders' roster and train.
func TestJoinOverRealTransport(t *testing.T) {
	b := queue.NewBroker()
	defer b.Close()
	g := newTestGroup(t, elasticConfig(t, 3, 2, brokerDial(b), nil))
	nodes := g.Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.Start(ctx)

	waitForCond(t, "join admitted", func() bool {
		var st core.MemberState
		var it int64
		inspectWorker(t, nodes[2], func(w *core.Worker) { st, it = w.State(), w.Iter() })
		return st == core.StateActive && it >= 2
	})
	want := []int{0, 1, 2}
	waitForCond(t, "roster convergence", func() bool {
		for _, nd := range nodes {
			var members []int
			inspectWorker(t, nd, func(w *core.Worker) { members = w.Members() })
			if len(members) != len(want) {
				return false
			}
			for i := range want {
				if members[i] != want[i] {
					return false
				}
			}
		}
		return true
	})
	cancel()
	g.Stop(budget(5 * time.Second))
}

// TestBrokerRestartDuringJoinHandshake is the churn acceptance test for the
// realtime substrate: the TCP broker dies right before a joiner starts its
// admission handshake and comes back mid-retry. The joiner's HELLO rides
// the reconnecting transport, the core's join-retry timer keeps re-offering,
// and the admission must complete — solo fallback is a failure here because
// the timeout is far beyond the outage — without deadlocking any node.
func TestBrokerRestartDuringJoinHandshake(t *testing.T) {
	b := queue.NewBroker()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// The founders run as a group; the joiner is built by the same
	// per-node builder and started on its own once the broker is down.
	cfg := elasticConfig(t, 3, 2, tcpDial(addr), nil)
	founders := cfg
	founders.Shards = cfg.Shards[:2]
	g := newTestGroup(t, founders)
	joiner, joinerTr, err := cfg.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := append(g.Nodes(), joiner)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.Start(ctx)

	// founders healthy, then the broker dies
	waitForCond(t, "founders training", func() bool {
		ok := true
		for _, nd := range nodes[:2] {
			var it int64
			inspectWorker(t, nd, func(w *core.Worker) { it = w.Iter() })
			ok = ok && it >= 1
		}
		return ok
	})
	srv.Close()

	// the joiner starts its handshake into the outage: its HELLO stalls in
	// the reconnecting transport until the broker returns
	joinerDone := make(chan struct{})
	go func() { defer close(joinerDone); _ = joiner.Run(ctx) }()
	time.Sleep(budget(300 * time.Millisecond))

	var srv2 *queue.Server
	for i := 0; i < 50; i++ {
		srv2, err = queue.Serve(b, addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("broker restart: %v", err)
	}

	// admission must complete through the restarted broker
	waitForCond(t, "join across restart", func() bool {
		var st core.MemberState
		var it int64
		inspectWorker(t, nodes[2], func(w *core.Worker) { st, it = w.State(), w.Iter() })
		return st == core.StateActive && it >= 1
	})
	var members []int
	inspectWorker(t, nodes[0], func(w *core.Worker) { members = w.Members() })
	if len(members) != 3 {
		t.Fatalf("founder roster %v after join, want 3 members", members)
	}
	// solo fallback would also reach StateActive; the roster check above
	// rules it out on the founder side, and the joiner's must match
	inspectWorker(t, nodes[2], func(w *core.Worker) { members = w.Members() })
	if len(members) != 3 {
		t.Fatalf("joiner roster %v, want 3 members", members)
	}

	cancel()
	<-joinerDone
	if err := joinerTr.Close(); err != nil {
		t.Errorf("transport close: %v", err)
	}
	if err := g.Stop(budget(5 * time.Second)); err != nil {
		t.Errorf("group stop: %v", err)
	}
	srv2.Close()
	b.Close()
}
