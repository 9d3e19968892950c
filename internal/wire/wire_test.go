package wire

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dlion/internal/grad"
	"dlion/internal/stats"
	"dlion/internal/tensor"
)

func gradientMsg() *Message {
	return &Message{
		Type: TypeGradient, From: 2, To: 5, Iter: 1234, LBS: 48,
		Selections: []*grad.Selection{
			{Var: "conv1/W", Total: 8, Idx: []int32{0, 3, 7}, Val: []float32{0.5, -1.25, 3}},
			{Var: "fc/b", Total: 4, Dense: []float32{1, 2, 3, 4}},
		},
	}
}

func TestGradientRoundTrip(t *testing.T) {
	m := gradientMsg()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	m := &Message{
		Type: TypeWeights, From: 1, To: 3, Iter: 7,
		Weights: map[string]*tensor.Tensor{
			"fc/W": tensor.FromSlice([]float32{1.5, -2.5}, 2),
			"fc/b": tensor.FromSlice([]float32{0}, 1),
		},
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeWeights || len(got.Weights) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Weights["fc/W"].Data[1] != -2.5 {
		t.Fatalf("weights %+v", got.Weights["fc/W"].Data)
	}
}

func TestScalarRoundTrips(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeLossReport, From: 0, To: 1, Iter: 3, Loss: 0.731},
		{Type: TypeRCPReport, From: 4, To: 2, Iter: 9, RCP: 123.456},
		{Type: TypeDKTRequest, From: 1, To: 0, Iter: 100},
		{Type: TypeSync, From: 5, To: 5, Iter: 42},
	} {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v mismatch: %+v vs %+v", m.Type, m, got)
		}
	}
}

func TestMembershipRoundTrips(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeHello, From: 6, To: 0, Iter: 0, Flags: HelloNeedSync, Epoch: 2},
		{Type: TypeHello, From: 6, To: 3, Iter: 40, Epoch: 3}, // announce: no sync flag
		{Type: TypeLeave, From: 2, To: 4, Iter: 77, Epoch: 9},
	} {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%v mismatch: %+v vs %+v", m.Type, m, got)
		}
	}

	w := &Message{
		Type: TypeWelcome, From: 0, To: 6, Iter: 120, Epoch: 4, GBS: 192,
		Members: []int32{0, 1, 2, 6},
		Weights: map[string]*tensor.Tensor{"fc/W": tensor.FromSlice([]float32{1.5, -2.5}, 2)},
	}
	got, err := Decode(Encode(w))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || got.GBS != 192 || got.Iter != 120 {
		t.Fatalf("welcome scalars: %+v", got)
	}
	if !reflect.DeepEqual(got.Members, w.Members) {
		t.Fatalf("members %v, want %v", got.Members, w.Members)
	}
	if got.Weights["fc/W"].Data[1] != -2.5 {
		t.Fatalf("welcome weights %+v", got.Weights)
	}

	// an empty-roster, no-weights welcome still round-trips
	empty := &Message{Type: TypeWelcome, From: 1, To: 2, Epoch: 1}
	got, err = Decode(Encode(empty))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Members) != 0 || len(got.Weights) != 0 {
		t.Fatalf("empty welcome decoded to %+v", got)
	}
}

func TestHelloRejectsUnknownFlags(t *testing.T) {
	enc := Encode(&Message{Type: TypeHello, From: 1, To: 0, Flags: HelloNeedSync})
	enc[1+4+4+8] |= 0x80 // set an undefined flag bit
	if _, err := Decode(enc); err == nil {
		t.Fatal("undefined hello flag must be rejected")
	}
}

func TestWireBytesMatchesEncoding(t *testing.T) {
	for _, m := range []*Message{
		gradientMsg(),
		{Type: TypeLossReport, Loss: 1},
		{Type: TypeDKTRequest},
		{Type: TypeWeights, Weights: map[string]*tensor.Tensor{
			"x": tensor.FromSlice([]float32{1, 2, 3}, 3)}},
		{Type: TypeHello, Flags: HelloNeedSync, Epoch: 7},
		{Type: TypeWelcome, Epoch: 2, GBS: 64, Members: []int32{0, 1, 5},
			Weights: map[string]*tensor.Tensor{"x": tensor.FromSlice([]float32{1, 2}, 2)}},
		{Type: TypeLeave, Epoch: 11},
	} {
		enc := Encode(m)
		want := m.WireBytes()
		// header accounting in grad.Selection uses a fixed 24-byte estimate;
		// allow that slack for gradient messages, exact for the rest
		if m.Type == TypeGradient {
			diff := want - len(enc)
			if diff < 0 || diff > 24*len(m.Selections) {
				t.Fatalf("%v: WireBytes %d vs encoded %d", m.Type, want, len(enc))
			}
			continue
		}
		if want != len(enc) {
			t.Fatalf("%v: WireBytes %d vs encoded %d", m.Type, want, len(enc))
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty must error")
	}
	if _, err := Decode([]byte{99}); err == nil {
		t.Fatal("unknown type must error")
	}
	enc := Encode(gradientMsg())
	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated must error")
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes must error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		nSel := 1 + r.Intn(4)
		m := &Message{Type: TypeGradient,
			From: int32(r.Intn(6)), To: int32(r.Intn(6)),
			Iter: int64(r.Intn(10000)), LBS: int32(1 + r.Intn(256))}
		for s := 0; s < nSel; s++ {
			total := 1 + r.Intn(64)
			sel := &grad.Selection{Var: string(rune('a' + s)), Total: total}
			if r.Intn(2) == 0 {
				sel.Dense = make([]float32, total)
				for i := range sel.Dense {
					sel.Dense[i] = float32(r.NormFloat64())
				}
			} else {
				n := r.Intn(total)
				for i := 0; i < n; i++ {
					sel.Idx = append(sel.Idx, int32(i))
					sel.Val = append(sel.Val, float32(r.NormFloat64()))
				}
			}
			m.Selections = append(m.Selections, sel)
		}
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFuzzDoesNotPanic(t *testing.T) {
	r := stats.NewRNG(1)
	base := Encode(gradientMsg())
	for trial := 0; trial < 500; trial++ {
		b := append([]byte(nil), base...)
		for flips := 0; flips < 1+r.Intn(8); flips++ {
			b[r.Intn(len(b))] ^= byte(r.Uint64())
		}
		Decode(b) // must not panic; error or garbage message both fine
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeGradient.String() != "gradient" {
		t.Fatal(TypeGradient.String())
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Fatal(MsgType(200).String())
	}
}

// TestRoundTripEdgeCases covers the payload corners the property test is
// unlikely to hit: empty tensors, single-element sparse selections,
// non-finite float bit patterns, and the dense/sparse representation
// boundary. Float comparisons go through Float32bits so NaN payloads
// (which compare unequal to themselves) are checked exactly.
func TestRoundTripEdgeCases(t *testing.T) {
	nanPayload := math.Float32frombits(0x7fc00001) // quiet NaN, nonzero payload
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		msg  *Message
	}{
		{"gradient heartbeat, no selections", &Message{
			Type: TypeGradient, From: 0, To: 1, Iter: 9, LBS: 8}},
		{"empty dense selection", &Message{
			Type: TypeGradient, From: 1, To: 0, Iter: 1, LBS: 8,
			Selections: []*grad.Selection{
				{Var: "fc/b", Total: 0, Dense: []float32{}}}}},
		{"empty sparse selection", &Message{
			Type: TypeGradient, From: 1, To: 0, Iter: 1, LBS: 8,
			Selections: []*grad.Selection{
				{Var: "fc/b", Total: 5}}}},
		{"single-element sparse", &Message{
			Type: TypeGradient, From: 2, To: 3, Iter: 77, LBS: 1,
			Selections: []*grad.Selection{
				{Var: "conv/W", Total: 1000, Idx: []int32{999}, Val: []float32{-0.25}}}}},
		{"nan and inf gradient values", &Message{
			Type: TypeGradient, From: 0, To: 1, Iter: 2, LBS: 4,
			Selections: []*grad.Selection{
				{Var: "a/W", Total: 3, Dense: []float32{nanPayload, inf, -inf}},
				{Var: "b/W", Total: 8, Idx: []int32{0, 7}, Val: []float32{inf, nanPayload}}}}},
		{"empty weights tensor", &Message{
			Type: TypeWeights, From: 4, To: 5, Iter: 3,
			Weights: map[string]*tensor.Tensor{
				"empty/W": tensor.FromSlice([]float32{}, 0)}}},
		{"nan weights", &Message{
			Type: TypeWeights, From: 4, To: 5, Iter: 3,
			Weights: map[string]*tensor.Tensor{
				"w/W": tensor.FromSlice([]float32{nanPayload, inf}, 2)}}},
		{"negative iter and ids", &Message{
			Type: TypeGradient, From: -1, To: -2, Iter: -5, LBS: -3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			raw := Encode(tc.msg)
			// grad.Selection accounts per-variable framing with a fixed
			// 24-byte estimate, so gradient sizes carry that much slack per
			// selection; every other type must be byte-exact.
			want, slack := tc.msg.WireBytes(), 0
			if tc.msg.Type == TypeGradient {
				slack = 24 * len(tc.msg.Selections)
			}
			if diff := want - len(raw); diff < 0 || diff > slack {
				t.Fatalf("WireBytes %d, encoded %d (allowed slack %d)", want, len(raw), slack)
			}
			got, err := Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			assertMessageBitsEqual(t, tc.msg, got)
		})
	}
}

// assertMessageBitsEqual compares two messages with float32 fields reduced
// to their bit patterns, so NaN != NaN semantics cannot hide a corruption.
func assertMessageBitsEqual(t *testing.T, want, got *Message) {
	t.Helper()
	if want.Type != got.Type || want.From != got.From || want.To != got.To ||
		want.Iter != got.Iter || want.LBS != got.LBS {
		t.Fatalf("header mismatch: %+v vs %+v", want, got)
	}
	if len(want.Selections) != len(got.Selections) {
		t.Fatalf("selection count %d vs %d", len(want.Selections), len(got.Selections))
	}
	for i, ws := range want.Selections {
		gs := got.Selections[i]
		if ws.Var != gs.Var || ws.Total != gs.Total {
			t.Fatalf("selection %d header: %+v vs %+v", i, ws, gs)
		}
		if (ws.Dense != nil) != (gs.Dense != nil) {
			t.Fatalf("selection %d: dense flag flipped in transit", i)
		}
		if !bitsEqual(ws.Dense, gs.Dense) || !bitsEqual(ws.Val, gs.Val) {
			t.Fatalf("selection %d values: %+v vs %+v", i, ws, gs)
		}
		if len(ws.Idx) != len(gs.Idx) {
			t.Fatalf("selection %d idx len", i)
		}
		for k := range ws.Idx {
			if ws.Idx[k] != gs.Idx[k] {
				t.Fatalf("selection %d idx[%d]", i, k)
			}
		}
	}
	if len(want.Weights) != len(got.Weights) {
		t.Fatalf("weights count %d vs %d", len(want.Weights), len(got.Weights))
	}
	for name, wt := range want.Weights {
		gt, ok := got.Weights[name]
		if !ok || !bitsEqual(wt.Data, gt.Data) {
			t.Fatalf("weights %q: %+v vs %+v", name, wt, gt)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDenseSparsEquivalentApplication: a dense selection and the sparse
// selection enumerating every index carry the same update; after a round
// trip through the wire both must apply identically. The wire must also
// preserve which representation was chosen — the dense flag is part of
// the sender's bandwidth accounting.
func TestDenseSparseEquivalentApplication(t *testing.T) {
	vals := []float32{0.5, -1.5, 2.25, 0}
	dense := &grad.Selection{Var: "v", Total: 4, Dense: vals}
	sparse := &grad.Selection{Var: "v", Total: 4,
		Idx: []int32{0, 1, 2, 3}, Val: vals}

	apply := func(s *grad.Selection) []float32 {
		m := &Message{Type: TypeGradient, From: 0, To: 1, Iter: 1, LBS: 8,
			Selections: []*grad.Selection{s}}
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, 4)
		if err := got.Selections[0].AddTo(dst, 2); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	dd, ds := apply(dense), apply(sparse)
	for i := range dd {
		if dd[i] != ds[i] {
			t.Fatalf("dense/sparse application diverges at %d: %v vs %v", i, dd[i], ds[i])
		}
	}
	// Representation is preserved, not canonicalized away.
	rt, err := Decode(Encode(&Message{Type: TypeGradient, Iter: 1, LBS: 8,
		Selections: []*grad.Selection{dense, sparse}}))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Selections[0].Dense == nil || rt.Selections[1].Dense != nil {
		t.Fatal("selection representation flipped through the wire")
	}
	// The sparse encoding of a full variable costs twice the dense bytes —
	// the reason selectVariable canonicalizes full selections to dense.
	if dense.Bytes() >= sparse.Bytes() {
		t.Fatalf("dense %dB should be cheaper than sparse %dB", dense.Bytes(), sparse.Bytes())
	}
}
