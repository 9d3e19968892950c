package testkit

import (
	"context"
	"fmt"

	"dlion/internal/cluster"
	"dlion/internal/core"
	"dlion/internal/fault"
	"dlion/internal/obs"
	"dlion/internal/queue"
	"dlion/internal/realtime"
	"dlion/internal/tensor"
)

// Churn equivalence: the same seeded SyncFull workload with one worker
// departing mid-run, executed on the simulator and over a live TCP broker.
//
// A time-scheduled leave lands on a substrate-dependent iteration, so the
// harness uses the step-exact trigger instead (fault.Leave.AfterIters /
// core Membership.LeaveAfterIters): the leaver departs after completing
// exactly LeaveAfter iterations — its final gradient broadcast included —
// on both substrates. That pins the leave side bit-for-bit: iteration
// count, gradient fan-out, terminal state. The survivors' side is verified
// structurally (iteration budget, final roster, epoch count, and the exact
// renormalization invariant within each substrate) rather than by weight
// comparison: the tombstone's arrival iteration is timing-dependent, so
// the divisor under which late pre-leave gradients apply may differ
// between substrates — a real property of asynchronous membership, not a
// bug the gate should reject.

// ChurnConfig describes one cross-mode churn workload.
type ChurnConfig struct {
	N          int    // workers (>= 3, so survivors still exchange)
	Steps      int64  // survivor iteration budget (MaxIters)
	Leaver     int    // id of the departing worker
	LeaveAfter int64  // leaver departs after exactly this many iterations
	Seed       uint64 // data + partition seed; replicas init from nn.ReplicaSeed(Seed)
}

func (c ChurnConfig) validate() error {
	if c.N < 3 || c.Steps < 1 {
		return fmt.Errorf("testkit: churn needs N >= 3 and Steps >= 1, got N=%d Steps=%d",
			c.N, c.Steps)
	}
	if c.Leaver < 0 || c.Leaver >= c.N {
		return fmt.Errorf("testkit: churn leaver %d outside [0,%d)", c.Leaver, c.N)
	}
	if c.LeaveAfter < 1 || c.LeaveAfter >= c.Steps {
		return fmt.Errorf("testkit: churn leave point %d outside [1,%d)", c.LeaveAfter, c.Steps)
	}
	return nil
}

func (c ChurnConfig) equivalence() EquivalenceConfig {
	return EquivalenceConfig{N: c.N, Steps: c.Steps, Seed: c.Seed}
}

// ChurnResult is one substrate's outcome.
type ChurnResult struct {
	Iters      []int64
	Stats      []core.Stats
	States     []core.MemberState
	Membership [][]core.EpochChange
	Rosters    [][]int
	FifoDrops  int64 // realtime only: frames shed from send FIFOs (must be 0)
}

// CheckRenormalization verifies the exact gradient fan-out invariant over
// one worker's membership log: between consecutive epoch entries — and
// from the last entry to the end of the run — the worker sent exactly
// ΔIter·(Size-1) gradient messages, Size being the roster the earlier
// entry established. Holds whenever the live-peer set equals the roster
// (no liveness expiries during the run).
func CheckRenormalization(log []core.EpochChange, finalIters, finalGradMsgs int64) error {
	if len(log) == 0 {
		return fmt.Errorf("testkit: empty membership log")
	}
	check := func(prev core.EpochChange, iters, grads int64, upto string) error {
		want := prev.GradMsgsSent + (iters-prev.Iter)*int64(prev.Size-1)
		if grads != want {
			return fmt.Errorf("testkit: epoch %d(%s)→%s: %d gradient msgs, want %d (size %d, iters %d→%d)",
				prev.Epoch, prev.Reason, upto, grads, want, prev.Size, prev.Iter, iters)
		}
		return nil
	}
	for i := 1; i < len(log); i++ {
		if err := check(log[i-1], log[i].Iter, log[i].GradMsgsSent, log[i].Reason); err != nil {
			return err
		}
	}
	return check(log[len(log)-1], finalIters, finalGradMsgs, "end")
}

// CheckChurn validates one substrate's run against the step-exact churn
// contract: the leaver departed at exactly the configured iteration with a
// full gradient fan-out behind it, every survivor spent its whole budget
// on the renormalized roster, and the fan-out invariant holds on every
// worker's epoch log.
func CheckChurn(c ChurnConfig, r *ChurnResult) error {
	if r.States[c.Leaver] != core.StateLeft {
		return fmt.Errorf("testkit: leaver state %v, want left", r.States[c.Leaver])
	}
	if r.Iters[c.Leaver] != c.LeaveAfter {
		return fmt.Errorf("testkit: leaver completed %d iterations, want exactly %d",
			r.Iters[c.Leaver], c.LeaveAfter)
	}
	if want := c.LeaveAfter * int64(c.N-1); r.Stats[c.Leaver].GradMsgsSent != want {
		return fmt.Errorf("testkit: leaver sent %d gradient msgs, want exactly %d",
			r.Stats[c.Leaver].GradMsgsSent, want)
	}
	for i := 0; i < c.N; i++ {
		if i == c.Leaver {
			continue
		}
		if r.States[i] != core.StateActive {
			return fmt.Errorf("testkit: survivor %d state %v, want active", i, r.States[i])
		}
		if r.Iters[i] != c.Steps {
			return fmt.Errorf("testkit: survivor %d completed %d/%d iterations",
				i, r.Iters[i], c.Steps)
		}
		if len(r.Rosters[i]) != c.N-1 {
			return fmt.Errorf("testkit: survivor %d roster %v still has %d members, want %d",
				i, r.Rosters[i], len(r.Rosters[i]), c.N-1)
		}
		last := r.Membership[i][len(r.Membership[i])-1]
		if last.Epoch != 1 || last.Reason != "leave" {
			return fmt.Errorf("testkit: survivor %d final epoch entry %+v, want epoch 1 via leave", i, last)
		}
	}
	for i := 0; i < c.N; i++ {
		if err := CheckRenormalization(r.Membership[i], r.Iters[i], r.Stats[i].GradMsgsSent); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// RunChurnSim executes the churn workload on the discrete-event simulator.
func RunChurnSim(c ChurnConfig) (*ChurnResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	defer tensor.SetDeterministic(tensor.SetDeterministic(true))

	cc := c.equivalence().clusterConfig()
	cc.Faults = &fault.Schedule{
		Leaves: []fault.Leave{{Worker: c.Leaver, AfterIters: c.LeaveAfter}},
	}
	res, err := cluster.Run(cc)
	if err != nil {
		return nil, err
	}
	return &ChurnResult{Iters: res.Iters, Stats: res.Stats, States: res.States,
		Membership: res.Membership, Rosters: res.Rosters}, nil
}

// RunChurnRealtime executes the same workload against a live TCP broker
// (queue.Serve + ClientTransport), the full production message path. It
// additionally reports the send-FIFO shed count: a graceful leave must
// drop zero in-flight frames, and under SyncFull the survivors can only
// finish their budget if the tombstone and every pre-leave gradient
// actually arrived.
func RunChurnRealtime(ctx context.Context, c ChurnConfig) (*ChurnResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	defer tensor.SetDeterministic(tensor.SetDeterministic(true))

	b := queue.NewBroker()
	defer b.Close()
	srv, err := queue.Serve(b, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	gc, err := c.equivalence().groupConfig(func(id int) (realtime.Transport, error) {
		return realtime.NewClientTransport(srv.Addr(), id)
	})
	if err != nil {
		return nil, err
	}
	gc.PerWorker = func(id int, sys core.Config) core.Config {
		if id == c.Leaver {
			sys.Membership.LeaveAfterIters = c.LeaveAfter
		}
		return sys
	}
	gc.Metrics = obs.NewRegistry()
	out := &ChurnResult{
		Iters:      make([]int64, c.N),
		Stats:      make([]core.Stats, c.N),
		States:     make([]core.MemberState, c.N),
		Membership: make([][]core.EpochChange, c.N),
		Rosters:    make([][]int, c.N),
	}
	// Settled: the leaver has left, every survivor spent its budget.
	err = runGroup(ctx, gc, func(i int, w *core.Worker) bool {
		if i == c.Leaver {
			return w.State() == core.StateLeft
		}
		return w.Iter() == c.Steps
	}, func(i int, w *core.Worker) {
		out.Iters[i] = w.Iter()
		out.Stats[i] = w.Stats()
		out.States[i] = w.State()
		out.Membership[i] = w.MembershipLog()
		out.Rosters[i] = w.Members()
	})
	if err != nil {
		return nil, err
	}
	out.FifoDrops = gc.Metrics.Counter("realtime.fifo_drops").Load()
	return out, nil
}
