package main

import (
	"testing"

	"dlion/internal/cluster"
	"dlion/internal/grad"
	"dlion/internal/lineage"
	"dlion/internal/systems"
)

func TestTracedSelectorKeepsLinkInvariance(t *testing.T) {
	st := &selectorStats{}
	cases := []struct {
		name      string
		newSel    func() grad.Selector
		invariant bool
	}{
		{"maxn", func() grad.Selector { return grad.NewMaxN(100) }, true},
		{"full", func() grad.Selector { return grad.Full{} }, true},
		{"gaia", func() grad.Selector { return grad.NewGaia(0.01) }, false},
		{"ako", func() grad.Selector { return grad.NewAko(4) }, false},
	}
	for _, c := range cases {
		sel := traceSelector(c.newSel, st, nil)()
		if _, ok := sel.(grad.LinkInvariant); ok != c.invariant {
			t.Errorf("%s: wrapper LinkInvariant = %t, want %t", c.name, ok, c.invariant)
		}
		if sel.Name() != c.newSel().Name() {
			t.Errorf("%s: wrapper name %q, want %q", c.name, sel.Name(), c.newSel().Name())
		}
	}
}

// A traced run must be the same program as the untraced one: identical
// replica digests and identical worker counters.
func TestTracedSimRunMatchesUntraced(t *testing.T) {
	small := simSpec{name: "test", n: 6, horizon: 6, capacity: 12, accFloor: 0}
	run := func(traced bool) *cluster.Result {
		sys := systems.DLion()
		st := &selectorStats{}
		if traced {
			sys.NewSelector = traceSelector(sys.NewSelector, st, newTracer())
		}
		r, err := cluster.Run(small.config(7, sys))
		if err != nil {
			t.Fatal(err)
		}
		if traced && st.calls.Load() == 0 {
			t.Fatal("traced run made no Select calls")
		}
		return r
	}
	plain, traced := run(false), run(true)
	for i := range plain.Models {
		if a, b := lineage.ModelHash(plain.Models[i]), lineage.ModelHash(traced.Models[i]); a != b {
			t.Errorf("replica %d digest %s untraced, %s traced", i, a, b)
		}
		if plain.Stats[i] != traced.Stats[i] {
			t.Errorf("worker %d stats %+v untraced, %+v traced", i, plain.Stats[i], traced.Stats[i])
		}
	}
	if plain.Stats[0].Iters == 0 {
		t.Fatal("workload too small: no iterations")
	}
}

// The same holds for the real-mode round with the transport wrapper, the
// phase recorders and broker counters on; both must also equal the
// simulator's digests.
func TestTracedRealRoundMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two real-mode rounds")
	}
	const seed = 3
	plain, err := realRoundRun(seed, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	xp := &transportStats{}
	traced, err := realRoundRun(seed, newTracer(), &selectorStats{}, xp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := real2Reference(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if plain.digests[i] != ref[i] || traced.digests[i] != ref[i] {
			t.Errorf("worker %d digests: untraced %s traced %s sim %s", i, plain.digests[i], traced.digests[i], ref[i])
		}
	}
	if !equalStats(plain.stats, traced.stats) {
		t.Errorf("stats differ: untraced %+v traced %+v", plain.stats, traced.stats)
	}
	if xp.sends.Load() != int64(real2.n)*real2.steps {
		t.Errorf("transport wrapper saw %d sends, want %d", xp.sends.Load(), int64(real2.n)*real2.steps)
	}
}
