package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dlion/internal/core"
	"dlion/internal/data"
	"dlion/internal/grad"
	"dlion/internal/nn"
	"dlion/internal/queue"
	"dlion/internal/realtime"
)

// lockedBuffer lets the test read what the reporter wrote while it runs.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestReportProgressWhileTraining runs the progress reporter against a
// live two-node group. Under -race it proves the reporter reads worker
// state only on the event loop: an off-loop Stats or AvgRecentLoss read
// races the loop's TrainStep bookkeeping.
func TestReportProgressWhileTraining(t *testing.T) {
	dc := data.Config{Name: "progress", NumClasses: 3, Train: 120, Test: 30,
		Channels: 1, Height: 8, Width: 8, Noise: 0.4, Bumps: 3, Seed: 4}
	train, _, err := data.Generate(dc)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.Partition(train, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := queue.NewBroker()
	defer b.Close()
	g, err := realtime.NewGroup(realtime.GroupConfig{N: 2,
		System: core.Config{Name: "progress", LearningRate: 0.05,
			NewSelector: func() grad.Selector { return grad.Full{} },
			Batch:       core.BatchConfig{InitialLBS: 8},
			Sync:        core.SyncConfig{Mode: core.SyncAsync}},
		Spec:   nn.CipherSpec(1, 8, 8, 3, 5),
		Shards: shards,
		Dial: func(id int) (realtime.Transport, error) {
			return realtime.NewBrokerTransport(b, id), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g.Start(ctx)
	defer g.Stop(time.Second)

	var out lockedBuffer
	rctx, stopReport := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		reportProgress(rctx, g.Nodes()[0], &out, 5*time.Millisecond)
	}()
	for strings.Count(out.String(), "\n") < 5 || !strings.Contains(out.String(), "iter=") {
		if ctx.Err() != nil {
			t.Fatalf("reporter printed too little: %q", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopReport()
	<-done
	if err := g.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
}
