package realtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dlion/internal/core"
)

// fakeTransport records its traffic and lifecycle. Recv blocks until Close
// unless recvErr is set; Send waits for gate (when set) and then takes
// sendDelay, and a Send after Close is counted as a lost frame.
type fakeTransport struct {
	recvErr   error
	gate      chan struct{}
	sendDelay time.Duration

	mu        sync.Mutex
	closes    int
	sent      int
	afterStop int
	closed    chan struct{}
}

func newFakeTransport() *fakeTransport { return &fakeTransport{closed: make(chan struct{})} }

func (f *fakeTransport) Send(int, []byte) error {
	if f.gate != nil {
		<-f.gate
	}
	time.Sleep(f.sendDelay)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closes > 0 {
		f.afterStop++
		return errors.New("fake: closed")
	}
	f.sent++
	return nil
}

func (f *fakeTransport) Recv() ([]byte, error) {
	if f.recvErr != nil {
		return nil, f.recvErr
	}
	<-f.closed
	return nil, errors.New("fake: closed")
}

func (f *fakeTransport) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closes == 0 {
		close(f.closed)
	}
	f.closes++
	return nil
}

func (f *fakeTransport) stats() (closes, sent, afterStop int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closes, f.sent, f.afterStop
}

// TestNewGroupFailureClosesOpenedTransports: when node k cannot be built,
// NewGroup closes exactly the transports it opened — k of them when the
// dial itself fails, k+1 when node k's own transport was opened — and
// dials nothing past k.
func TestNewGroupFailureClosesOpenedTransports(t *testing.T) {
	const n, k = 4, 2
	for _, tc := range []struct {
		name   string
		fail   func(cfg *GroupConfig)
		opened int
	}{
		{"dial", func(cfg *GroupConfig) {
			dial := cfg.Dial
			cfg.Dial = func(id int) (Transport, error) {
				if id == k {
					return nil, errors.New("dial refused")
				}
				return dial(id)
			}
		}, k},
		{"node", func(cfg *GroupConfig) {
			cfg.PerWorker = func(id int, c core.Config) core.Config {
				if id == k {
					c.LearningRate = -1
				}
				return c
			}
		}, k + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dialed []*fakeTransport
			cfg := testGroupConfig(t, testData("rt"), n, func(int) (Transport, error) {
				f := newFakeTransport()
				dialed = append(dialed, f)
				return f, nil
			})
			tc.fail(&cfg)
			if _, err := NewGroup(cfg); err == nil {
				t.Fatal("NewGroup succeeded despite a failing node")
			}
			if len(dialed) != tc.opened {
				t.Fatalf("%d transports opened, want %d", len(dialed), tc.opened)
			}
			for i, f := range dialed {
				if closes, _, _ := f.stats(); closes != 1 {
					t.Errorf("transport %d closed %d times, want once", i, closes)
				}
			}
		})
	}
}

// TestGroupAwaitReturnsRunError: a node whose transport fails ends its Run
// with an error, and Await must report it at once rather than poll until
// the caller's context expires.
func TestGroupAwaitReturnsRunError(t *testing.T) {
	g := newTestGroup(t, testGroupConfig(t, testData("rt"), 2, func(id int) (Transport, error) {
		f := newFakeTransport()
		if id == 1 {
			f.recvErr = errors.New("link severed")
		}
		return f, nil
	}))
	g.Start(context.Background())

	got := make(chan error, 1)
	go func() {
		got <- g.Await(context.Background(), func(int, *core.Worker) bool { return false })
	}()
	select {
	case err := <-got:
		if err == nil || !strings.Contains(err.Error(), "link severed") {
			t.Fatalf("Await = %v, want node 1's transport error", err)
		}
	case <-time.After(budget(10 * time.Second)):
		t.Fatal("Await kept polling after a node's Run failed")
	}
}

// TestGroupStopDrainsBeforeClose: the transports hold every send until
// the send FIFOs have backed up, then turn slow; Stop, called right away,
// must hand every queued frame to its transport before closing it, so no
// frame meets a closed transport.
func TestGroupStopDrainsBeforeClose(t *testing.T) {
	gate := make(chan struct{})
	var open sync.Once
	var fakes []*fakeTransport
	g := newTestGroup(t, testGroupConfig(t, testData("rt"), 2, func(int) (Transport, error) {
		f := newFakeTransport()
		f.gate, f.sendDelay = gate, 10*time.Millisecond
		fakes = append(fakes, f)
		return f, nil
	}))
	t.Cleanup(func() { open.Do(func() { close(gate) }) }) // runs before the group's Stop
	nodes := g.Nodes()
	g.Start(context.Background())

	waitForCond(t, "queued frames", func() bool {
		return nodes[0].sendPending.Load() >= 3 && nodes[1].sendPending.Load() >= 3
	})
	open.Do(func() { close(gate) })
	if err := g.Stop(budget(10 * time.Second)); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for i, f := range fakes {
		closes, sent, afterStop := f.stats()
		if closes != 1 {
			t.Errorf("transport %d closed %d times, want once", i, closes)
		}
		if afterStop != 0 {
			t.Errorf("transport %d: %d frames sent after close", i, afterStop)
		}
		if sent == 0 {
			t.Errorf("transport %d sent nothing", i)
		}
		if p := nodes[i].sendPending.Load(); p != 0 {
			t.Errorf("node %d: %d frames still queued after Stop", i, p)
		}
	}
}
