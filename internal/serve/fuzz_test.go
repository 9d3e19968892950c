package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dlion/internal/lineage"
)

// seedUpdates are weight-update frames with and without a manifest. The
// checkpoint bytes are opaque to the frame (the registry validates them), so
// a short stand-in keeps the corpus small.
func seedUpdates() [][]byte {
	ckpt := []byte("checkpoint bytes")
	man := &lineage.Manifest{
		Schema: lineage.Schema, Model: "cipher", Digest: 0xdeadbeefcafef00d,
		Parent: 0x1234, ParentIter: 6, Iter: 12, Worker: 1, Precision: "f32",
		Vars: map[string]lineage.Hash{"conv1/w": 11},
	}
	bare, err := EncodeUpdate(9, nil, ckpt)
	if err != nil {
		panic(err)
	}
	withMan, err := EncodeUpdate(12, man, ckpt)
	if err != nil {
		panic(err)
	}
	return [][]byte{bare, withMan, withMan[:updateHeader+8]}
}

// FuzzDecodeUpdate asserts DecodeUpdate never panics, rejects only with
// ErrBadUpdate, and that whatever it accepts survives EncodeUpdate: a frame
// without a manifest re-encodes byte for byte, and one with a manifest
// re-encodes to a frame that decodes to the same sequence, checkpoint and
// manifest bytes. Corpus seeds live in testdata/fuzz/FuzzDecodeUpdate (see
// TestGenerateSeedCorpus).
func FuzzDecodeUpdate(f *testing.F) {
	for _, s := range seedUpdates() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, man, ckpt, err := DecodeUpdate(data)
		if err != nil {
			if !errors.Is(err, ErrBadUpdate) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		frame, err := EncodeUpdate(seq, man, ckpt)
		if err != nil {
			t.Fatalf("decoded update does not re-encode: %v", err)
		}
		if man == nil && !bytes.Equal(frame, data) {
			t.Fatal("manifest-free frame does not re-encode byte for byte")
		}
		seq2, man2, ckpt2, err := DecodeUpdate(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		again, err := EncodeUpdate(seq2, man2, ckpt2)
		if err != nil || seq2 != seq || !bytes.Equal(ckpt2, ckpt) || !bytes.Equal(again, frame) {
			t.Fatalf("re-encoded frame is not a fixed point: %v", err)
		}
	})
}

// TestGenerateSeedCorpus regenerates the committed fuzz seed corpus under
// testdata/fuzz when run with SERVE_GENERATE_CORPUS=1.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("SERVE_GENERATE_CORPUS") == "" {
		t.Skip("set SERVE_GENERATE_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeUpdate")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seedUpdates() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := []string{"seed-bare", "seed-manifest", "seed-truncated"}[i]
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
