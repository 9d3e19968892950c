package queue

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire protocol (WIRE.md §1). Every payload travels as one length-prefixed
// frame, [4B len][payload], read by readFrame and written by writeFrame:
//
//	request   [1B cmd][2B keyLen][key] frame
//	response  [1B status] frame          (cmdBRPop only)
//	push      frame frame ...            (after cmdSubscribe)
//
// cmdPublish and cmdLPush have no response. cmdBRPop carries an 8-byte
// little-endian timeout in milliseconds as payload and receives a response
// (status 0 = ok, 1 = timeout). After cmdSubscribe the connection becomes
// push-only: the server streams frames until either side closes, mirroring
// Redis's dedicated-subscriber-connection model.
const (
	cmdPublish = 1
	cmdLPush   = 2
	cmdBRPop   = 3
	cmdSub     = 4
)

const (
	// maxFrame caps a frame's payload. readFrame checks it before
	// allocating, so a hostile or corrupt prefix costs nothing.
	maxFrame = 64 << 20
	// maxKey caps a request key; it fits bufio's default 4 KiB buffer,
	// which lets readRequest parse the key in place.
	maxKey = 4096
)

// Server exposes a Broker over TCP.
type Server struct {
	broker *Broker
	ln     net.Listener
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a TCP server for b on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns once listening.
func Serve(b *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{broker: b, ln: ln, conns: map[net.Conn]struct{}{}}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections. The broker itself is
// left open (it may be shared).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cancel()
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		cmd, key, payload, err := readRequest(r)
		if err != nil {
			return
		}
		switch cmd {
		case cmdPublish:
			s.broker.Publish(key, payload)
		case cmdLPush:
			s.broker.LPush(key, payload)
		case cmdBRPop:
			if len(payload) != 8 {
				return
			}
			timeout := time.Duration(binary.LittleEndian.Uint64(payload)) * time.Millisecond
			ctx, cancel := contextWithOptionalTimeout(s.ctx, timeout)
			data, err := s.broker.BRPop(ctx, key)
			cancel()
			status := byte(0)
			if err != nil {
				status, data = 1, nil
			}
			if err := writeFrame(w, append(w.AvailableBuffer(), status), data); err != nil {
				return
			}
		case cmdSub:
			s.servePush(conn, w, key)
			return
		default:
			return
		}
	}
}

func (s *Server) servePush(conn net.Conn, w *bufio.Writer, channel string) {
	sub, err := s.broker.Subscribe(channel, 256)
	if err != nil {
		return
	}
	defer sub.Cancel()
	// Detect client disconnect by reading (the client sends nothing more).
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn)
		close(done)
	}()
	for {
		select {
		case p, ok := <-sub.C:
			if !ok {
				return
			}
			if err := writeFrame(w, w.AvailableBuffer(), p); err != nil {
				return
			}
		case <-done:
			return
		}
	}
}

// contextWithOptionalTimeout returns a child of parent bounded by d, or an
// unbounded child when d <= 0 (BRPOP with timeout 0 blocks until the
// server shuts down, like Redis blocks forever).
func contextWithOptionalTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// next consumes the next n bytes of r and returns them in place; the slice
// is valid only until r is read again. A stream ending inside the n bytes
// is io.ErrUnexpectedEOF.
func next(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = r.Discard(n) // cannot fail: Peek buffered n bytes
	return b, nil
}

// readFrame reads one length-prefixed payload. The length is checked
// against maxFrame before the exact-size payload buffer is allocated.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := next(r, 4)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("queue: %d-byte frame exceeds the %d-byte cap", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// writeFrame writes head (a message's fixed fields, usually built in
// w.AvailableBuffer()), then payload as one length-prefixed frame, and
// flushes.
func writeFrame(w *bufio.Writer, head, payload []byte) error {
	head = binary.LittleEndian.AppendUint32(head, uint32(len(payload)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readRequest(r *bufio.Reader) (cmd byte, key string, payload []byte, err error) {
	hdr, err := next(r, 3)
	if err != nil {
		return 0, "", nil, err
	}
	cmd, klen := hdr[0], int(binary.LittleEndian.Uint16(hdr[1:]))
	if klen > maxKey {
		return 0, "", nil, errors.New("queue: key too long")
	}
	kb, err := next(r, klen)
	if err != nil {
		return 0, "", nil, err
	}
	key = string(kb)
	if payload, err = readFrame(r); err != nil {
		return 0, "", nil, err
	}
	return cmd, key, payload, nil
}

func writeRequest(w *bufio.Writer, cmd byte, key string, payload []byte) error {
	head := append(w.AvailableBuffer(), cmd)
	head = binary.LittleEndian.AppendUint16(head, uint16(len(key)))
	return writeFrame(w, append(head, key...), payload)
}

// Client talks to a queue Server. One client multiplexes Publish, LPush
// and BRPop over a single connection (calls are serialized); Subscribe
// opens a dedicated connection, as the protocol requires.
type Client struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	subMu   sync.Mutex
	subs    []net.Conn
	closed  bool
	done    chan struct{} // closed by Close; unblocks slow-consumer sends
	subWait sync.WaitGroup
}

// Dial connects to a queue server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn, done: make(chan struct{}),
		r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Publish sends payload to all subscribers of channel.
func (c *Client) Publish(channel string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return writeRequest(c.w, cmdPublish, channel, payload)
}

// LPush appends payload to the named list.
func (c *Client) LPush(key string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return writeRequest(c.w, cmdLPush, key, payload)
}

// ErrTimeout is returned by BRPop when the server-side wait expires.
var ErrTimeout = errors.New("queue: BRPOP timeout")

// BRPop blocks until an element is available on key or timeout elapses
// (timeout <= 0 waits forever).
func (c *Client) BRPop(key string, timeout time.Duration) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tbuf [8]byte
	ms := int64(0)
	if timeout > 0 {
		ms = int64(timeout / time.Millisecond)
		if ms == 0 {
			ms = 1
		}
	}
	binary.LittleEndian.PutUint64(tbuf[:], uint64(ms))
	if err := writeRequest(c.w, cmdBRPop, key, tbuf[:]); err != nil {
		return nil, err
	}
	status, err := c.r.ReadByte()
	if err != nil {
		return nil, err
	}
	payload, err := readFrame(c.r)
	if err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, ErrTimeout
	}
	return payload, nil
}

// Subscribe opens a dedicated connection subscribed to channel and returns
// a receive channel that closes when the connection drops or the client is
// closed.
func (c *Client) Subscribe(channel string, buf int) (<-chan []byte, error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(conn)
	if err := writeRequest(w, cmdSub, channel, nil); err != nil {
		conn.Close()
		return nil, err
	}
	c.subMu.Lock()
	if c.closed {
		c.subMu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	c.subs = append(c.subs, conn)
	c.subMu.Unlock()

	if buf < 1 {
		buf = 64
	}
	out := make(chan []byte, buf)
	c.subWait.Add(1)
	go func() {
		defer c.subWait.Done()
		defer close(out)
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			payload, err := readFrame(r)
			if err != nil {
				return
			}
			// A slow (or absent) consumer must not wedge this goroutine on
			// the channel send: it would never return to the read loop, so
			// it would never observe the closed connection and Close would
			// hang forever on subWait.Wait. The done channel breaks the tie.
			select {
			case out <- payload:
			case <-c.done:
				return
			}
		}
	}()
	return out, nil
}

// Close tears down the client and all of its subscription connections. It
// deliberately does NOT take the request mutex before closing the main
// connection: a BRPop blocked waiting for a response holds that mutex, and
// closing the connection is what unblocks it.
func (c *Client) Close() error {
	c.subMu.Lock()
	if c.closed {
		c.subMu.Unlock()
		c.subWait.Wait()
		return nil
	}
	c.closed = true
	close(c.done)
	for _, s := range c.subs {
		s.Close()
	}
	c.subs = nil
	c.subMu.Unlock()
	err := c.conn.Close()
	c.subWait.Wait()
	return err
}
