package trie

import (
	"fmt"
	"math/rand"
	"testing"

	"dmvcc/internal/types"
)

// applyBoth applies one op to a plain and a sharded trie.
func applyBoth(t *testing.T, plain *Trie, sharded *ShardedTrie, key, val []byte) {
	t.Helper()
	if len(val) == 0 {
		if err := plain.Delete(key); err != nil {
			t.Fatalf("plain delete: %v", err)
		}
		if err := sharded.Delete(key); err != nil {
			t.Fatalf("sharded delete: %v", err)
		}
		return
	}
	if err := plain.Put(key, val); err != nil {
		t.Fatalf("plain put: %v", err)
	}
	if err := sharded.Put(key, val); err != nil {
		t.Fatalf("sharded put: %v", err)
	}
}

// TestShardedRootMatchesPlain drives random keyed writes and deletes through
// a plain trie and a sharded trie in lockstep, committing after every round,
// and requires byte-identical roots at every commit — including the empty,
// single-key, and single-shard shapes the assembly must collapse.
func TestShardedRootMatchesPlain(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 42))
			plain, err := New(EmptyRoot, NewMemStore())
			if err != nil {
				t.Fatal(err)
			}
			sharded := NewSharded(NewMemStore())

			keys := make([][]byte, 0, n)
			for round := 0; round < 4; round++ {
				for i := 0; i < n; i++ {
					k := make([]byte, 32)
					rng.Read(k)
					v := make([]byte, 1+rng.Intn(60))
					rng.Read(v)
					hk := types.Keccak(k)
					applyBoth(t, plain, sharded, hk[:], v)
					keys = append(keys, hk[:])
				}
				// Delete a third of the live keys.
				for i := 0; i < len(keys)/3; i++ {
					j := rng.Intn(len(keys))
					applyBoth(t, plain, sharded, keys[j], nil)
				}
				want, err := plain.Commit()
				if err != nil {
					t.Fatalf("plain commit: %v", err)
				}
				got, err := sharded.Commit(4)
				if err != nil {
					t.Fatalf("sharded commit: %v", err)
				}
				if got != want {
					t.Fatalf("round %d: sharded root %s != plain %s", round, got, want)
				}
			}
		})
	}
}

// TestShardedSingleShardCollapse pins the degenerate shapes: all keys landing
// in one shard must still produce the canonical unsharded root.
func TestShardedSingleShardCollapse(t *testing.T) {
	plain, _ := New(EmptyRoot, NewMemStore())
	sharded := NewSharded(NewMemStore())
	// Keys sharing the first nibble (0x1) so exactly one shard is live.
	for i := 0; i < 20; i++ {
		k := make([]byte, 32)
		k[0] = 0x10 | byte(i%3)
		k[1] = byte(i)
		v := []byte{byte(i + 1)}
		applyBoth(t, plain, sharded, k, v)
	}
	want, err := plain.Commit()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Commit(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("single-shard root %s != plain %s", got, want)
	}
}

// TestShardedWorkerCountInvariance checks that the commit root does not
// depend on the hashing parallelism.
func TestShardedWorkerCountInvariance(t *testing.T) {
	build := func(workers int) types.Hash {
		s := NewSharded(NewMemStore())
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			k := make([]byte, 32)
			rng.Read(k)
			if err := s.Put(k, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
		root, err := s.Commit(workers)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	r1 := build(1)
	for _, w := range []int{2, 4, 16} {
		if r := build(w); r != r1 {
			t.Fatalf("workers=%d root %s != workers=1 root %s", w, r, r1)
		}
	}
}

// TestShardedIncrementalResolve commits, mutates a few keys, and commits
// again: the second commit must resolve collapsed leaves from the store
// and still match the plain trie (the incremental dirty-path property).
func TestShardedIncrementalResolve(t *testing.T) {
	plain, _ := New(EmptyRoot, NewMemStore())
	sharded := NewSharded(NewMemStore())
	rng := rand.New(rand.NewSource(11))
	keys := make([][]byte, 100)
	for i := range keys {
		k := make([]byte, 32)
		rng.Read(k)
		keys[i] = k
		applyBoth(t, plain, sharded, k, []byte{0xaa, byte(i)})
	}
	if _, err := plain.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Commit(4); err != nil {
		t.Fatal(err)
	}
	// Touch a handful of keys; the rest of the trie is now hash references.
	for i := 0; i < 10; i++ {
		applyBoth(t, plain, sharded, keys[i*7], []byte{0xbb, byte(i)})
	}
	applyBoth(t, plain, sharded, keys[3], nil)
	want, err := plain.Commit()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Commit(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("incremental root %s != plain %s", got, want)
	}
	// Reads must resolve through the store after collapse.
	for i, k := range keys {
		if i == 3 {
			continue
		}
		if _, err := sharded.Get(k); err != nil {
			t.Fatalf("get key %d after collapse: %v", i, err)
		}
	}
}
