package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dmvcc/internal/keccak"
	"dmvcc/internal/rlp"
	"dmvcc/internal/types"
)

// scratchRoot builds a fresh trie over the model's full key set and returns
// its root: the oracle every incremental commit must match.
func scratchRoot(t *testing.T, model map[string][]byte) types.Hash {
	t.Helper()
	fresh := newEmpty(t)
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := fresh.Put([]byte(k), model[k]); err != nil {
			t.Fatal(err)
		}
	}
	h, err := fresh.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkReopened requires every model key to read back through a trie opened
// cold at root over store — so every node reachable from the root is
// persisted — and, by the root match, nothing else to be there.
func checkReopened(t *testing.T, store Store, root types.Hash, model map[string][]byte) {
	t.Helper()
	cold, err := New(root, store)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range model {
		got, err := cold.Get([]byte(k))
		if err != nil {
			t.Fatalf("cold get %x at %s: %v", k, root, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("cold get %x = %x, want %x", k, got, v)
		}
	}
}

// committer is one long-lived trie flavour under the differential test.
type committer struct {
	put    func(k, v []byte) error
	del    func(k []byte) error
	hash   func() (types.Hash, error) // nil: no uncommitted-hash entry point
	commit func() (types.Hash, error)
	store  Store
}

func plainCommitter(t *testing.T) committer {
	tr := newEmpty(t)
	return committer{put: tr.Put, del: tr.Delete, hash: tr.Hash, commit: tr.Commit, store: tr.store}
}

func shardedCommitter(workers int) committer {
	store := NewMemStore()
	s := NewSharded(store)
	return committer{
		put:    s.Put,
		del:    s.Delete,
		commit: func() (types.Hash, error) { return s.Commit(workers) },
		store:  store,
	}
}

// TestIncrementalCommitDifferential drives random Put/Delete batches through
// long-lived tries, committing after every batch, and checks each commit
// against a from-scratch trie over the full key set and against a cold
// reopen over the store. Batches include mass deletes that collapse branches
// and extensions back into leaves, an emptied trie, and rounds that call
// Hash before Commit (which must not mark anything as persisted). Short,
// prefix-sharing keys in the plain-trie run produce embedded nodes and
// extensions; the sharded runs use fixed-width hashed keys, as the state
// tries do.
func TestIncrementalCommitDifferential(t *testing.T) {
	cases := []struct {
		name     string
		make     func(t *testing.T) committer
		shortKey bool
	}{
		{"trie/short-keys", plainCommitter, true},
		{"trie/hashed-keys", plainCommitter, false},
		{"sharded/workers=1", func(*testing.T) committer { return shardedCommitter(1) }, false},
		{"sharded/workers=4", func(*testing.T) committer { return shardedCommitter(4) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1401))
			c := tc.make(t)
			model := make(map[string][]byte)
			randKey := func() []byte {
				if tc.shortKey {
					k := make([]byte, 1+rng.Intn(4))
					for i := range k {
						k[i] = byte(rng.Intn(6)) * 0x11 // few distinct nibbles: long shared prefixes
					}
					return k
				}
				k := make([]byte, 32)
				rng.Read(k)
				return k
			}
			liveKey := func() []byte {
				if len(model) == 0 {
					return randKey()
				}
				live := make([]string, 0, len(model))
				for k := range model {
					live = append(live, k)
				}
				sort.Strings(live) // map order is random; keep runs reproducible
				return []byte(live[rng.Intn(len(live))])
			}
			for batch := 0; batch < 60; batch++ {
				ops := 1 + rng.Intn(40)
				switch {
				case batch%15 == 14:
					ops = len(model) // delete everything: trie empties
				case batch%5 == 4:
					ops = len(model) * 3 / 4 // mass delete: branches collapse
				}
				for i := 0; i < ops; i++ {
					deleting := batch%5 == 4 || batch%15 == 14 || rng.Intn(3) == 0
					if deleting {
						k := liveKey()
						if rng.Intn(8) == 0 {
							k = randKey() // usually missing: a no-op delete
						}
						if err := c.del(k); err != nil {
							t.Fatal(err)
						}
						delete(model, string(k))
						continue
					}
					k := randKey()
					if len(model) > 0 && rng.Intn(3) == 0 {
						k = liveKey() // update in place
					}
					v := make([]byte, 1+rng.Intn(40))
					rng.Read(v)
					if err := c.put(k, v); err != nil {
						t.Fatal(err)
					}
					model[string(k)] = v
				}
				want := scratchRoot(t, model)
				if c.hash != nil && rng.Intn(2) == 0 {
					h, err := c.hash()
					if err != nil {
						t.Fatal(err)
					}
					if h != want {
						t.Fatalf("batch %d: Hash %s != scratch root %s", batch, h, want)
					}
				}
				got, err := c.commit()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("batch %d (%d keys): committed root %s != scratch root %s", batch, len(model), got, want)
				}
				checkReopened(t, c.store, got, model)
			}
		})
	}
}

// BenchmarkShardedBlockCommit measures one block's account-trie commit on a
// long-lived sharded trie: 1,500 updated keys out of 10k, then Commit on two
// workers (the shape of a 1024-transfer block).
func BenchmarkShardedBlockCommit(b *testing.B) {
	s := NewSharded(NewMemStore())
	const n = 10_000
	keys := make([][]byte, n)
	for i := range keys {
		k := types.Keccak([]byte(fmt.Sprint(i)))
		keys[i] = k[:]
		if err := s.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 70)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Commit(2); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	val := bytes.Repeat([]byte{0xab}, 70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1500; j++ {
			val[0], val[1] = byte(i), byte(j)
			if err := s.Put(keys[rng.Intn(n)], val); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Commit(2); err != nil {
			b.Fatal(err)
		}
	}
}

// itemOf is an independent reference encoder: the node's RLP structure
// built from rlp.Item values, children referenced by hash from 32 bytes up.
func itemOf(t *testing.T, n node) rlp.Item {
	t.Helper()
	refOf := func(c node) rlp.Item {
		if c == nil {
			return rlp.String(nil)
		}
		if h, ok := c.(hashNode); ok {
			return rlp.String(h[:])
		}
		it := itemOf(t, c)
		if enc := rlp.Encode(it); len(enc) >= 32 {
			h := keccak.Sum256(enc)
			return rlp.String(h[:])
		}
		return it
	}
	switch n := n.(type) {
	case *leafNode:
		return rlp.List(rlp.String(appendHexPrefix(nil, n.key, true)), rlp.String(n.val))
	case *extNode:
		return rlp.List(rlp.String(appendHexPrefix(nil, n.key, false)), refOf(n.child))
	case *branchNode:
		items := make([]rlp.Item, 17)
		for i, c := range n.children {
			items[i] = refOf(c)
		}
		items[16] = rlp.String(n.val)
		return rlp.List(items...)
	}
	t.Fatalf("unexpected node %T", n)
	return rlp.Item{}
}

// TestEncoderMatchesItemEncoding compares the streaming node encoder with
// the reference Item encoder on every resident node of tries mixing
// embedded and hash-referenced children, values at branches, long values
// and extensions.
func TestEncoderMatchesItemEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		tr := newEmpty(t)
		for i := 0; i < 1+rng.Intn(200); i++ {
			k := make([]byte, 1+rng.Intn(6))
			for j := range k {
				k[j] = byte(rng.Intn(4)) * 0x15
			}
			v := make([]byte, 1+rng.Intn(90))
			rng.Read(v)
			if err := tr.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		var walk func(n node)
		walk = func(n node) {
			switch nn := n.(type) {
			case *extNode:
				walk(nn.child)
			case *branchNode:
				for _, c := range nn.children {
					walk(c)
				}
			case nil, hashNode:
				return
			}
			got, err := tr.encodeNode(n)
			if err != nil {
				t.Fatal(err)
			}
			if want := rlp.Encode(itemOf(t, n)); !bytes.Equal(got, want) {
				t.Fatalf("round %d: %T encodes to %x, want %x", round, n, got, want)
			}
		}
		walk(tr.root)
	}
}
