package trie

import (
	"fmt"
	"sync"

	"dmvcc/internal/types"
)

// ShardCount is the fan-out of a ShardedTrie: one shard per value of the
// first nibble of the (hashed) key. Hashed keys distribute uniformly, so the
// shards stay balanced at any population.
const ShardCount = 16

// ShardedTrie is a Merkle Patricia Trie partitioned into sixteen independent
// subtries by the first nibble of the key. Because an MPT's shape is a pure
// function of its key set, the subtree hanging under child i of the root
// branch contains exactly the keys starting with nibble i (with that nibble
// consumed) — so each shard holds its slice of the key space as a standalone
// trie over the remaining nibbles, shards hash concurrently without sharing
// any mutable node, and the assembled root is byte-identical to a single
// unsharded Trie over the same keys (including the degenerate one-shard and
// one-key shapes, which collapse through the same rules a deletion uses).
//
// Mutations (Put/Delete) are not safe for concurrent use; Commit's internal
// shard hashing is the parallel part.
type ShardedTrie struct {
	store  Store
	shards [ShardCount]*Trie
	dirty  [ShardCount]bool
}

// NewSharded returns an empty sharded trie over store.
func NewSharded(store Store) *ShardedTrie {
	s := &ShardedTrie{store: store}
	for i := range s.shards {
		s.shards[i] = &Trie{store: store}
	}
	return s
}

// OpenSharded returns a sharded trie positioned at an existing committed
// root, splitting the root node back into its per-nibble shards (the inverse
// of assembleRoot). Shards reopen as hash references, so no subtree is
// resolved until a mutation touches it.
func OpenSharded(root types.Hash, store Store) (*ShardedTrie, error) {
	s := NewSharded(store)
	if root == EmptyRoot || root.IsZero() {
		return s, nil
	}
	scratch := &Trie{store: store}
	n, err := scratch.resolve(hashNode(root))
	if err != nil {
		return nil, fmt.Errorf("trie: open sharded root: %w", err)
	}
	switch n := n.(type) {
	case *branchNode:
		if len(n.val) != 0 {
			// Keys are fixed-width hashes, so no key terminates at the root.
			return nil, fmt.Errorf("trie: open sharded root: unexpected branch value")
		}
		for i := range n.children {
			s.shards[i].root = n.children[i]
		}
	case *leafNode:
		// Single-key trie: the shard holds the leaf with its first nibble
		// consumed.
		s.shards[n.key[0]].root = &leafNode{key: n.key[1:], val: n.val}
	case *extNode:
		// Single live shard collapsed into an extension: strip the shard
		// nibble back off.
		if len(n.key) == 1 {
			s.shards[n.key[0]].root = n.child
		} else {
			s.shards[n.key[0]].root = &extNode{key: n.key[1:], child: n.child}
		}
	default:
		return nil, fmt.Errorf("trie: open sharded root: unexpected node type %T", n)
	}
	return s, nil
}

// putPath inserts value under an explicit nibble path (the sharded trie
// strips the first nibble before delegating).
func (t *Trie) putPath(path []byte, value []byte) error {
	if len(value) == 0 {
		return t.deletePath(path)
	}
	newRoot, err := t.insert(t.root, path, value)
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

// deletePath removes an explicit nibble path.
func (t *Trie) deletePath(path []byte) error {
	newRoot, _, err := t.del(t.root, path)
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

// Put inserts or updates key -> value in the owning shard. Empty values
// delete the key.
func (s *ShardedTrie) Put(key, value []byte) error {
	nib := keyNibbles(key)
	if len(nib) == 0 {
		return fmt.Errorf("trie: sharded put with empty key")
	}
	s.dirty[nib[0]] = true
	return s.shards[nib[0]].putPath(nib[1:], value)
}

// Delete removes key from the owning shard; missing keys are a no-op.
func (s *ShardedTrie) Delete(key []byte) error {
	nib := keyNibbles(key)
	if len(nib) == 0 {
		return fmt.Errorf("trie: sharded delete with empty key")
	}
	s.dirty[nib[0]] = true
	return s.shards[nib[0]].deletePath(nib[1:])
}

// Get returns the value stored under key, or ErrNotFound.
func (s *ShardedTrie) Get(key []byte) ([]byte, error) {
	nib := keyNibbles(key)
	if len(nib) == 0 {
		return nil, ErrNotFound
	}
	return s.shards[nib[0]].get(s.shards[nib[0]].root, nib[1:])
}

// Commit persists all dirty shards and returns the root hash of the whole
// (logical) trie, hashing dirty shards on up to workers goroutines. The root
// and store contents are byte-identical for any worker count, and identical
// to an unsharded Trie holding the same keys.
func (s *ShardedTrie) Commit(workers int) (types.Hash, error) {
	// Phase 1: commit dirty shards (persist their dirty paths). Shards only
	// touch their own nodes plus the concurrency-safe store.
	var dirtyIdx []int
	for i := range s.shards {
		if s.dirty[i] {
			dirtyIdx = append(dirtyIdx, i)
			s.dirty[i] = false
		}
	}
	if workers <= 1 || len(dirtyIdx) < 2 {
		for _, i := range dirtyIdx {
			if _, err := s.shards[i].Commit(); err != nil {
				return types.Hash{}, err
			}
		}
	} else {
		if workers > len(dirtyIdx) {
			workers = len(dirtyIdx)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(dirtyIdx))
		next := make(chan int, len(dirtyIdx))
		for pos := range dirtyIdx {
			next <- pos
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pos := range next {
					_, errs[pos] = s.shards[dirtyIdx[pos]].Commit()
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return types.Hash{}, err
			}
		}
	}

	// Phase 2 (serial, deterministic): assemble the logical root from the
	// sixteen shard roots.
	return s.assembleRoot()
}

// assembleRoot combines the shard roots into the canonical unsharded root.
// With two or more live shards the root is a branch node whose child i is
// shard i's root; with one it collapses into the shard (re-attaching the
// consumed nibble); with none it is the empty root. These are exactly the
// shapes a plain trie would have, so the encodings — and the root hash —
// match byte for byte.
func (s *ShardedTrie) assembleRoot() (types.Hash, error) {
	liveIdx, liveCount := -1, 0
	for i, sh := range s.shards {
		if sh.root != nil {
			liveIdx = i
			liveCount++
		}
	}
	scratch := &Trie{store: s.store}
	var root node
	switch liveCount {
	case 0:
		return EmptyRoot, nil
	case 1:
		// Single live shard: the logical trie is the shard with its first
		// nibble re-attached, collapsed through the standard merge rules
		// (leaf and extension keys absorb the nibble; branches gain a
		// one-nibble extension).
		collapsed, _, err := scratch.collapseExt([]byte{byte(liveIdx)}, s.shards[liveIdx].root)
		if err != nil {
			return types.Hash{}, err
		}
		root = collapsed
	default:
		b := &branchNode{}
		for i, sh := range s.shards {
			b.children[i] = sh.root
		}
		root = b
	}
	scratch.root = root
	return scratch.Commit()
}
