package queue

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// oversizedPrefix is a frame length just under 4 GiB: far past maxFrame, so
// a reader that allocated before checking it would ask for ~4 GiB.
var oversizedPrefix = []byte{0xf0, 0xff, 0xff, 0xff}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// checkAllocBelow fails t when more than limit bytes were allocated since
// before (a TotalAlloc reading).
func checkAllocBelow(t *testing.T, before, limit uint64) {
	t.Helper()
	if grown := totalAlloc() - before; grown >= limit {
		t.Fatalf("allocated %d MB reading an oversized frame prefix, want < %d MB",
			grown>>20, limit>>20)
	}
}

// fakeBroker accepts connections on a loopback port and answers the first
// request on each with reply, then closes the connection. It stands in for
// a hostile or corrupt broker.
func fakeBroker(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, _, err := readRequest(bufio.NewReader(conn)); err != nil {
					return
				}
				conn.Write(reply)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestBRPopRejectsOversizedPrefix: a BRPop response whose length prefix
// claims ~4 GiB must fail without allocating the claimed size.
func TestBRPopRejectsOversizedPrefix(t *testing.T) {
	c, err := Dial(fakeBroker(t, append([]byte{0}, oversizedPrefix...)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := totalAlloc()
	if p, err := c.BRPop("q", time.Second); err == nil {
		t.Fatalf("BRPop accepted an oversized frame (%d bytes)", len(p))
	}
	checkAllocBelow(t, before, 1<<20)
}

// TestSubscribeRejectsOversizedPrefix: the push stream drops the connection
// on an oversized prefix, closing the channel without delivering anything.
func TestSubscribeRejectsOversizedPrefix(t *testing.T) {
	c, err := Dial(fakeBroker(t, oversizedPrefix))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := totalAlloc()
	ch, err := c.Subscribe("ch", 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case p, ok := <-ch:
		if ok {
			t.Fatalf("subscription delivered %d bytes from an oversized frame", len(p))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not close on an oversized frame")
	}
	checkAllocBelow(t, before, 1<<20)
}

// TestReadRequestRejectsOversizedPrefix: the broker's request parser
// refuses an oversized payload prefix before allocating, and a truthful
// prefix over a truncated body is io.ErrUnexpectedEOF, not a hang.
func TestReadRequestRejectsOversizedPrefix(t *testing.T) {
	req := append([]byte{cmdLPush, 1, 0, 'q'}, oversizedPrefix...)
	before := totalAlloc()
	if _, _, _, err := readRequest(bufio.NewReader(bytes.NewReader(req))); err == nil {
		t.Fatal("readRequest accepted an oversized payload prefix")
	}
	checkAllocBelow(t, before, 1<<20)

	truncated := []byte{cmdLPush, 1, 0, 'q', 8, 0, 0, 0, 'x'}
	if _, _, _, err := readRequest(bufio.NewReader(bytes.NewReader(truncated))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, _, err := readRequest(bufio.NewReader(bytes.NewReader(truncated[:2]))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: err %v, want io.ErrUnexpectedEOF", err)
	}
}

// seedRequests are well-formed request streams for every command.
func seedRequests() [][]byte {
	var timeout [8]byte
	timeout[0] = 100
	reqs := []struct {
		cmd     byte
		key     string
		payload []byte
	}{
		{cmdPublish, "dlion:serve:weights", []byte("DLS2 frame")},
		{cmdLPush, "dlion:data:3", []byte{1, 0, 0, 0, 0, 2, 0, 0, 0}},
		{cmdBRPop, "dlion:data:0", timeout[:]},
		{cmdSub, "dlion:ctl", nil},
	}
	var out [][]byte
	for _, r := range reqs {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeRequest(w, r.cmd, r.key, r.payload); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzReadRequest feeds arbitrary bytes to the broker's request parser as
// one connection's stream. It must never panic or allocate past maxFrame,
// and the protocol is canonical: re-encoding each parsed request in order
// reproduces exactly the bytes the parser consumed. Corpus seeds live in
// testdata/fuzz/FuzzReadRequest (see TestGenerateSeedCorpus).
func FuzzReadRequest(f *testing.F) {
	seeds := seedRequests()
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(bytes.Join(seeds, nil))
	f.Add(append([]byte{cmdLPush, 1, 0, 'q'}, oversizedPrefix...))
	f.Add([]byte{cmdPublish, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		var re bytes.Buffer
		w := bufio.NewWriter(&re)
		for {
			cmd, key, payload, err := readRequest(r)
			if err != nil {
				break
			}
			if len(key) > maxKey || len(payload) > maxFrame {
				t.Fatalf("accepted key %d / payload %d bytes past the caps", len(key), len(payload))
			}
			if err := writeRequest(w, cmd, key, payload); err != nil {
				t.Fatal(err)
			}
		}
		consumed := len(data) - src.Len() - r.Buffered()
		if n := re.Len(); n > consumed || !bytes.Equal(re.Bytes(), data[:n]) {
			t.Fatalf("re-encoded requests differ from the %d bytes parsed", consumed)
		}
	})
}

// TestGenerateSeedCorpus regenerates the committed fuzz seed corpus under
// testdata/fuzz when run with QUEUE_GENERATE_CORPUS=1.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("QUEUE_GENERATE_CORPUS") == "" {
		t.Skip("set QUEUE_GENERATE_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadRequest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seeds := seedRequests()
	for _, s := range seeds {
		write(fmt.Sprintf("seed-cmd-%d", s[0]), s)
	}
	write("seed-stream", bytes.Join(seeds, nil))
	write("seed-oversized-prefix", append([]byte{cmdLPush, 1, 0, 'q'}, oversizedPrefix...))
}
