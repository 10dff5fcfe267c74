package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// blob is a Bulk body for the tests: Data crosses as the section, followed
// by one check byte (the XOR of Data's bytes) that JoinBulk verifies, so a
// section can be malformed.
type blob struct {
	Tag  string
	Data []byte
}

// blobHead is a body that says it takes a section and lies about its
// size: AppendBulk writes one byte fewer than SplitBulk announced.
type blobHead struct{ N int }

func init() {
	Register(blob{})
	Register(blobHead{})
}

func xorOf(b []byte) (x byte) {
	for _, c := range b {
		x ^= c
	}
	return x
}

func (b blob) SplitBulk() (any, int)        { return blob{Tag: b.Tag}, len(b.Data) + 1 }
func (b blob) AppendBulk(dst []byte) []byte { return append(append(dst, b.Data...), xorOf(b.Data)) }

func (b blob) JoinBulk(section []byte) (any, error) {
	data := section[:len(section)-1]
	if xorOf(data) != section[len(section)-1] {
		return nil, errors.New("blob: check byte mismatch")
	}
	b.Data = data
	return b, nil
}

func (h blobHead) SplitBulk() (any, int)        { return h, h.N }
func (h blobHead) AppendBulk(dst []byte) []byte { return append(dst, make([]byte, h.N-1)...) }

// writeConn is a net.Conn whose writes are counted and, with a nil Conn,
// only recorded: the tests build streams with it and count how many
// writes an envelope takes.
type writeConn struct {
	net.Conn
	writes atomic.Int64
	buf    bytes.Buffer // only without a Conn
}

func (w *writeConn) Write(b []byte) (int, error) {
	w.writes.Add(1)
	if w.Conn == nil {
		return w.buf.Write(b)
	}
	return w.Conn.Write(b)
}

// countListener wraps every accepted connection in a writeConn.
type countListener struct {
	net.Listener
	conns chan *writeConn
}

func (l *countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := &writeConn{Conn: nc}
	l.conns <- wc
	return wc, nil
}

// stream encodes envelopes the way one connection sends them, in order.
func stream(envs ...*Envelope) []byte {
	wc := &writeConn{}
	c := newConn(wc)
	for _, e := range envs {
		if err := c.send(e); err != nil {
			panic(err)
		}
	}
	return wc.buf.Bytes()
}

func blobHandler(_ net.Addr, req any) (any, error) {
	if b, ok := req.(blob); ok {
		return b, nil
	}
	return handleTest(req, nil)
}

// TestBulkRoundTrip sends bulk bodies both ways, around the reader's
// buffer size and the chunk a long section is read in, between plain gob
// bodies on the same connection.
func TestBulkRoundTrip(t *testing.T) {
	s := startServerWith(t, blobHandler)
	cl := dial(t, s.Addr())
	for i, n := range []int{0, 1, 4095, 4096, 70_000, bulkChunk, bulkChunk + 3} {
		data := bytes.Repeat([]byte{byte(i + 1), 7}, n/2+1)[:n]
		resp, err := cl.Call(blob{Tag: "t", Data: data}, 5*time.Second)
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		got, ok := resp.(blob)
		if !ok || got.Tag != "t" || !bytes.Equal(got.Data, data) {
			t.Fatalf("%d bytes: came back as %T with %d bytes", n, resp, len(got.Data))
		}
		if _, err := cl.Call(echoReq{N: i}, time.Second); err != nil {
			t.Fatalf("plain call after a %d-byte section: %v", n, err)
		}
	}
}

// TestOneWritePerEnvelope counts the writes on both ends of a connection:
// every request and every reply, plain or with a bulk section, the first
// of its type (which carries gob's type definitions) or not, an error
// reply included, is exactly one Write. Chaos injects its faults per
// Write, so this is what makes its drops drop whole messages.
func TestOneWritePerEnvelope(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cln := &countListener{Listener: ln, conns: make(chan *writeConn, 1)}
	s := NewServer(cln, blobHandler)
	t.Cleanup(func() { s.Close() })
	nc, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := &writeConn{Conn: nc}
	cl := newTestClient(client)
	defer cl.Close()

	var server *writeConn
	for i, req := range []any{
		echoReq{N: 1},
		blob{Tag: "a", Data: bytes.Repeat([]byte{3}, 100_000)},
		blob{Tag: "b", Data: []byte("x")},
		failReq{Msg: "no"},
		echoReq{N: 2, Payload: make([]byte, 64<<10)},
		blob{Tag: "c"},
	} {
		_, err := cl.Call(req, 5*time.Second)
		if _, fail := req.(failReq); (err != nil) != fail {
			t.Fatalf("call %d (%T): %v", i, req, err)
		}
		if server == nil {
			server = <-cln.conns
		}
		if got, want := client.writes.Load(), int64(i+1); got != want {
			t.Fatalf("after call %d (%T) the client made %d writes, want %d", i, req, got, want)
		}
		if got, want := server.writes.Load(), int64(i+1); got != want {
			t.Fatalf("after call %d (%T) the server made %d writes, want %d", i, req, got, want)
		}
	}
}

// TestBulkSizeMismatchFailsTheSend: a body whose section is not the size
// it announced fails its call as a transport error, before any byte of it
// is written.
func TestBulkSizeMismatchFailsTheSend(t *testing.T) {
	s := startServer(t)
	nc, err := net.DialTimeout("tcp", s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeConn{Conn: nc}
	cl := newTestClient(wc)
	defer cl.Close()
	_, err = cl.Call(blobHead{N: 5}, time.Second)
	if err == nil || !IsTransportError(err) || !strings.Contains(err.Error(), "announced 5") {
		t.Fatalf("err = %v, want a transport error naming the announced size", err)
	}
	if n := wc.writes.Load(); n != 0 {
		t.Fatalf("the failed send made %d writes", n)
	}
}

// TestBadSectionPoisonsTheConnection: a reply whose section its head
// rejects fails the call as a transport error naming the section, and
// poisons the client like any broken frame.
func TestBadSectionPoisonsTheConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reply := stream(&Envelope{ID: 1, Reply: true, Body: blob{Data: []byte("data")}})
	reply[len(reply)-1] ^= 0xff // the check byte
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		// Reply once the request has begun to arrive: the call is then
		// pending, so the bad section fails it rather than a client that
		// the reply already poisoned.
		if _, err := nc.Read(make([]byte, 1)); err != nil {
			return
		}
		_, _ = nc.Write(reply)
		_, _ = io.Copy(io.Discard, nc)
	}()
	cl := dial(t, ln.Addr().String())
	_, err = cl.Call(echoReq{N: 1}, time.Second)
	if err == nil || !IsTransportError(err) || !strings.Contains(err.Error(), "check byte mismatch") {
		t.Fatalf("err = %v, want a transport error naming the bad section", err)
	}
	if _, err := cl.Call(echoReq{N: 2}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after a bad section: err = %v, want ErrClosed", err)
	}
}

// fuzzAllocSlack is what reading any input may allocate beyond a fixed
// multiple of its length: a bulk chunk, gob's own chunk for a message
// length it has not yet seen the bytes of (10 MiB in internal/saferio),
// and gob's per-type decoder state.
const fuzzAllocSlack = bulkChunk + 10<<20 + 256<<10

// FuzzReadEnvelope feeds arbitrary bytes to a connection's receive path:
// gob envelopes, each followed by its bulk section. Every read must end in
// an error or a well-formed envelope (a claimed section rebuilt into the
// body that takes it), never panic, and never allocate much more than the
// input: a claimed section length is backed by bytes before it is backed
// by memory. The committed corpus holds a valid stream, a truncated
// section, a negative and a 1 GiB length, and a section after a body that
// takes none.
func FuzzReadEnvelope(f *testing.F) {
	f.Add(stream(&Envelope{ID: 1, Body: blob{Tag: "b", Data: []byte("hello")}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rd := newReader(bytes.NewReader(data))
		for {
			var env Envelope
			if err := rd.read(&env); err != nil {
				break
			}
			if env.Bulk < 0 {
				t.Fatalf("read an envelope claiming a %d-byte section", env.Bulk)
			}
			if env.Bulk > 0 {
				b, ok := env.Body.(blob)
				if !ok || len(b.Data) != env.Bulk-1 {
					t.Fatalf("a %d-byte section came back as %T", env.Bulk, env.Body)
				}
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(8*len(data)+fuzzAllocSlack) {
			t.Fatalf("reading %d bytes allocated %d", len(data), got)
		}
	})
}
