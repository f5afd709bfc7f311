package dirserve

import (
	"bytes"
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
