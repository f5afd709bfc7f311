package dirserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"ethpart/internal/directory"
	"ethpart/internal/graph"
)

// FuzzDecodeBatch feeds arbitrary bytes to the replica's batch decoder, the
// part of a replica that reads what a network peer sent. Three properties:
//
//   - decoding never panics, whatever the bytes;
//   - a payload that decodes without error re-encodes, through appendBatch,
//     to exactly the bytes it consumed;
//   - committing the decoded batch to a fresh directory either fails, or
//     publishes a view holding exactly the distinct IDs of Set ∪ SetCold,
//     each of which looks up ok.
func FuzzDecodeBatch(f *testing.F) {
	for _, tb := range mixedStream {
		f.Add(appendBatch(nil, tb.b))
	}
	stream, _ := genCommitStream(1, 64)
	for _, sh := range stream {
		f.Add(appendBatch(nil, sh.b))
	}
	f.Add(appendBatch(nil, directory.Batch{
		Set:     []directory.Move{{V: 1 << 22, To: 1}, {V: 1<<40 + 5, To: 0}},
		SetCold: []directory.Move{{V: 1<<22 + 1, To: 1}},
		Retire:  []graph.VertexID{1 << 22},
		Promote: []graph.VertexID{1<<22 + 1},
		Shards:  2,
	}))
	f.Add(appendBatch(nil, directory.Batch{
		Set: []directory.Move{{V: 3, To: directory.MaxShard + 1}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := cursor{p: data}
		b := c.decodeBatch()
		if c.err != nil {
			return
		}
		consumed := data[:len(data)-len(c.p)]
		if re := appendBatch(nil, b); !bytes.Equal(re, consumed) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, consumed)
		}

		d := directory.New(directory.Config{})
		if _, err := d.Commit(b); err != nil {
			return
		}
		ids := make(map[graph.VertexID]bool, len(b.Set)+len(b.SetCold))
		for _, m := range b.Set {
			ids[m.V] = true
		}
		for _, m := range b.SetCold {
			ids[m.V] = true
		}
		s := d.Current()
		if s.Len() != len(ids) {
			t.Fatalf("view holds %d entries, batch maps %d distinct IDs", s.Len(), len(ids))
		}
		for v := range ids {
			if _, ok := s.Lookup(v); !ok {
				t.Fatalf("mapped ID %d does not look up", v)
			}
		}
	})
}

// memConn is an in-memory connection: reads drain in, writes append to
// out. The server's connection handler only reads, writes and closes, so
// the net.Conn methods it never calls stay nil.
type memConn struct {
	net.Conn
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (c *memConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *memConn) Close() error                { c.closed = true; return nil }

// serveOnce runs one server connection handler over input to the end: the
// handler returns once it has read the whole input, or earlier when a
// frame poisons the connection.
func serveOnce(cfg ServerConfig, input []byte) *memConn {
	conn := &memConn{in: bytes.NewReader(input)}
	s := &Server{cfg: cfg}
	s.wg.Add(1)
	s.handle(conn)
	return conn
}

// fuzzDirectory is a small populated directory: hot, cold and spilled
// entries over two shard counts, with a journal shallow enough that early
// epochs are evicted.
func fuzzDirectory(tb testing.TB) *directory.Directory {
	d := directory.New(directory.Config{JournalDepth: 2})
	for _, mb := range mixedStream {
		if _, err := d.CommitBatch(mb.b, mb.wave); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := d.Commit(directory.Batch{
		SetCold: []directory.Move{{V: 1<<22 + 1, To: 2}},
		Retire:  []graph.VertexID{4},
	}); err != nil {
		tb.Fatal(err)
	}
	return d
}

// clientFrames returns the request payloads a Client writes: a first
// (resolving) LookupBatch, exact-pinned ones at a retained, an evicted and
// a future epoch, and Stats.
func clientFrames(tb testing.TB) [][]byte {
	conn := &memConn{in: bytes.NewReader(nil)}
	c := &Client{conns: []*clientConn{{conn: conn, br: newReader(conn), bw: newWriter(conn)}}}
	ids := []graph.VertexID{1, 2, 3, 4, 5, 99, 1<<22 + 1}
	out := make([]int32, len(ids))
	for _, pin := range []uint64{0, 6, 1, 9} {
		c.pin = pin
		c.LookupBatch(ids, out) // fails reading the (absent) response
	}
	c.Stats()
	var frames [][]byte
	br := bufio.NewReader(&conn.out)
	for {
		frame, err := readFrame(br, nil)
		if err != nil {
			break
		}
		frames = append(frames, frame)
	}
	if len(frames) != 5 {
		tb.Fatalf("captured %d client frames, want 5", len(frames))
	}
	return frames
}

// FuzzServeFrame sends one arbitrary request frame to a server in front of
// a small populated directory. The server must not panic, must either
// close the connection or answer with exactly one frame of the matching
// response type, and must leave the directory's epoch alone. A statusOK
// lookup answer carries one in-range shard per requested ID.
func FuzzServeFrame(f *testing.F) {
	for _, frame := range clientFrames(f) {
		f.Add(frame)
	}
	dir := fuzzDirectory(f)
	cfg := ServerConfig{Dir: dir, Hints: directory.NewHintRing(64)}
	epoch := dir.Epoch()

	f.Fuzz(func(t *testing.T, payload []byte) {
		input := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		conn := serveOnce(cfg, append(input, payload...))
		if !conn.closed {
			t.Fatal("handler returned without closing the connection")
		}
		if got := dir.Epoch(); got != epoch {
			t.Fatalf("a request moved the directory from epoch %d to %d", epoch, got)
		}
		if conn.out.Len() == 0 {
			return // the frame poisoned the connection
		}
		br := bufio.NewReader(&conn.out)
		resp, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("answer is not a frame: %v", err)
		}
		if br.Buffered() != 0 || conn.out.Len() != 0 {
			t.Fatal("server answered one request with more than one frame")
		}
		c := cursor{p: resp}
		switch typ := c.u8(); payload[0] {
		case msgLookup:
			if typ != msgLookupResp {
				t.Fatalf("lookup answered with message type %d", typ)
			}
			req := cursor{p: payload[1+8+1:]}
			want := req.u32()
			status := c.u8()
			c.u64()
			c.u8()
			n := c.u32()
			if status == statusOK && n != want {
				t.Fatalf("statusOK answer carries %d shards for %d IDs", n, want)
			}
			for i := uint32(0); i < n; i++ {
				if sh := int32(c.u32()); sh < NoShard || int(sh) > directory.MaxShard {
					t.Fatalf("shard %d outside [%d, %d]", sh, NoShard, directory.MaxShard)
				}
			}
		case msgStats:
			if typ != msgStatsResp {
				t.Fatalf("stats answered with message type %d", typ)
			}
			c.u64()
			c.u64()
			c.u64()
		default:
			t.Fatalf("message type %d was answered (type %d)", payload[0], typ)
		}
		if c.err != nil || len(c.p) != 0 {
			t.Fatalf("answer is malformed (err %v, %d trailing bytes)", c.err, len(c.p))
		}
	})
}

// TestServerRejectsOversizeFrame pins the frame-length guard: a length
// prefix above maxFrame closes the connection unanswered, before a buffer
// of that size is allocated.
func TestServerRejectsOversizeFrame(t *testing.T) {
	cfg := ServerConfig{Dir: fuzzDirectory(t)}
	input := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn := serveOnce(cfg, input)
	runtime.ReadMemStats(&after)
	if !conn.closed || conn.out.Len() != 0 {
		t.Fatalf("oversize frame: closed=%v, answered %d bytes; want closed unanswered", conn.closed, conn.out.Len())
	}
	// The handler's buffered reader and writer take 128 KiB; a payload
	// buffer would take maxFrame (64 MiB).
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting an oversize frame allocated %d B", alloc)
	}
}
