package lineage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// seedManifests covers the manifest's structural variety: root and chained
// manifests, with and without replay descriptors and per-variable tables.
func seedManifests() []*Manifest {
	return []*Manifest{
		{Schema: Schema, Model: "cipher", Digest: 0xdeadbeefcafef00d, Iter: 12, Seed: 42, Precision: "f32"},
		chained(),
		{
			Schema: Schema, Model: "m", Digest: 1, Worker: 3,
			Replay: &Replay{Substrate: SubstrateRealtime, Workers: 4},
		},
	}
}

// FuzzDecodeJSON asserts DecodeJSON never panics and that everything it
// accepts is a valid manifest whose EncodeJSON form is a fixed point:
// re-encoding, decoding and re-encoding again yields the same bytes. Any
// rejection is an ErrBadManifest. Corpus seeds live in
// testdata/fuzz/FuzzDecodeJSON (see TestGenerateSeedCorpus).
func FuzzDecodeJSON(f *testing.F) {
	for _, m := range seedManifests() {
		js, err := EncodeJSON(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Add([]byte(`{"schema":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeJSON(data)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		js, err := EncodeJSON(m)
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		m2, err := DecodeJSON(js)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		js2, err := EncodeJSON(m2)
		if err != nil || !bytes.Equal(js, js2) {
			t.Fatalf("EncodeJSON not a fixed point: %v", err)
		}
	})
}

// TestGenerateSeedCorpus regenerates the committed fuzz seed corpus under
// testdata/fuzz when run with LINEAGE_GENERATE_CORPUS=1.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("LINEAGE_GENERATE_CORPUS") == "" {
		t.Skip("set LINEAGE_GENERATE_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeJSON")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range seedManifests() {
		js, err := EncodeJSON(m)
		if err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("seed-json-%d", i), js)
	}
	write("seed-truncated", []byte(`{"schema":`))
}
