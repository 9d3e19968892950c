package realtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/nn"
	"dlion/internal/obs"
)

// GroupConfig describes the nodes of one job over one broker. Its NewNode
// is the single place that turns (id, transport) into a node Config.
type GroupConfig struct {
	N      int // cluster size: the id space, which may exceed len(Shards) for joiner slots
	System core.Config
	Spec   nn.Spec
	Shards []*data.Shard // node id trains on Shards[id]; a Group builds one node per shard

	Dial      func(id int) (Transport, error)
	PerWorker func(id int, c core.Config) core.Config // optional, as cluster.Config.PerWorker
	Obs       []*obs.WorkerObs                        // optional: node id's phase sink at Obs[id]
	Metrics   *obs.Registry
}

// NewNode builds worker id over tr.
func (c GroupConfig) NewNode(id int, tr Transport) (*Node, error) {
	sys := c.System
	if c.PerWorker != nil {
		sys = c.PerWorker(id, sys)
	}
	cfg := Config{ID: id, N: c.N, System: sys, Spec: c.Spec, Shard: c.Shards[id],
		Transport: tr, Metrics: c.Metrics}
	if id < len(c.Obs) {
		cfg.Obs = c.Obs[id]
	}
	return NewNode(cfg)
}

// Open dials node id's transport and builds the node over it, closing the
// transport again if the node cannot be built.
func (c GroupConfig) Open(id int) (*Node, Transport, error) {
	tr, err := c.Dial(id)
	if err != nil {
		return nil, nil, fmt.Errorf("realtime: dial node %d: %w", id, err)
	}
	n, err := c.NewNode(id, tr)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	return n, tr, nil
}

// Group owns the lifecycle of a set of nodes; DESIGN.md §2 states its
// contract.
type Group struct {
	nodes      []*Node
	transports []Transport

	runCtx   context.Context // every Run's context; ends at Stop or with Start's ctx
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	errs     chan error // Run errors, fanned in
	stopOnce sync.Once
	stopErr  error
}

// NewGroup builds one node per shard in cfg. If node k fails to build, the
// k transports already opened are closed.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if len(cfg.Shards) == 0 || cfg.N < len(cfg.Shards) {
		return nil, fmt.Errorf("realtime: group of %d nodes in a cluster of %d", len(cfg.Shards), cfg.N)
	}
	g := &Group{errs: make(chan error, len(cfg.Shards))}
	for id := range cfg.Shards {
		n, tr, err := cfg.Open(id)
		if err != nil {
			for _, t := range g.transports {
				t.Close()
			}
			return nil, err
		}
		g.nodes, g.transports = append(g.nodes, n), append(g.transports, tr)
	}
	return g, nil
}

// Nodes returns the nodes in id order. Touch a node's worker directly only
// before Start or after Stop; in between, use Inspect.
func (g *Group) Nodes() []*Node { return append([]*Node(nil), g.nodes...) }

// Transport returns node id's transport.
func (g *Group) Transport(id int) Transport { return g.transports[id] }

// Start runs every node until ctx ends or Stop is called. Call it once.
func (g *Group) Start(ctx context.Context) {
	g.runCtx, g.cancel = context.WithCancel(ctx)
	for _, n := range g.nodes {
		g.wg.Add(1)
		go func(n *Node) {
			defer g.wg.Done()
			if err := n.Run(g.runCtx); err != nil {
				g.errs <- fmt.Errorf("realtime: node %d: %w", n.cfg.ID, err)
			}
		}(n)
	}
}

// Await, after Start, returns once done holds on every node, checked on
// each node's event loop in id order (a settled node is not re-checked).
// It returns early with the first Run error, or when ctx or the run
// context ends.
func (g *Group) Await(ctx context.Context, done func(id int, w *core.Worker) bool) error {
	for id := 0; id < len(g.nodes); {
		var ok bool
		// Inspect fails only once ctx ends or the node stops; the select
		// below then reports why.
		_ = g.nodes[id].Inspect(ctx, func(w *core.Worker) { ok = done(id, w) })
		if ok {
			id++
			continue
		}
		select {
		case err := <-g.errs:
			return err
		case <-ctx.Done():
			return ctx.Err()
		case <-g.runCtx.Done():
			return fmt.Errorf("realtime: group stopped: %w", g.runCtx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Inspect runs fn on every node's event loop in id order.
func (g *Group) Inspect(ctx context.Context, fn func(id int, w *core.Worker)) error {
	for id, n := range g.nodes {
		if err := n.Inspect(ctx, func(w *core.Worker) { fn(id, w) }); err != nil {
			return err
		}
	}
	return nil
}

// Stop cancels every Run and waits for it to return, gives each node up to
// flush to drain its send FIFOs, then closes the transports. It reports
// the Run errors Await has not returned, every undrained FIFO and every
// Close error. Stop is idempotent.
func (g *Group) Stop(flush time.Duration) error {
	g.stopOnce.Do(func() {
		if g.cancel != nil {
			g.cancel()
		}
		g.wg.Wait()
		var errs []error
		for len(g.errs) > 0 {
			errs = append(errs, <-g.errs)
		}
		for id, n := range g.nodes {
			if !n.FlushSends(flush) {
				errs = append(errs, fmt.Errorf("realtime: node %d send queues never drained", id))
			}
		}
		for _, tr := range g.transports {
			errs = append(errs, tr.Close())
		}
		g.stopErr = errors.Join(errs...)
	})
	return g.stopErr
}
