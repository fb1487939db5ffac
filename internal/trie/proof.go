package trie

import (
	"bytes"
	"errors"
	"fmt"

	"dmvcc/internal/keccak"
	"dmvcc/internal/rlp"
	"dmvcc/internal/types"
)

// Proof errors.
var (
	ErrBadProof = errors.New("trie: invalid merkle proof")
)

// Proof is a Merkle proof: the RLP encodings of the nodes on the path from
// the root to the key, outermost first. Verification needs only the root
// hash — this is how light clients check state values (and how the paper's
// RQ1 oracle extends to per-item checks).
type Proof [][]byte

// Prove builds a Merkle proof for key: the encoding of every standalone
// node on the lookup path (the root plus every node that is hash-referenced
// by its parent — embedded short nodes travel inside their parent's
// encoding). The proof demonstrates either the key's value or its absence,
// and works on both committed and in-memory tries.
func (t *Trie) Prove(key []byte) (Proof, error) {
	var proof Proof
	path := keyNibbles(key)
	n := t.root
	isRoot := true
	for {
		appended := false
		if h, ok := n.(hashNode); ok {
			enc, err := t.store.GetNode(types.Hash(h))
			if err != nil {
				return nil, err
			}
			proof = append(proof, enc)
			resolved, err := t.resolve(h)
			if err != nil {
				return nil, err
			}
			n = resolved
			appended = true
			isRoot = false
		}
		if n == nil {
			return proof, nil
		}
		if !appended {
			enc, err := t.encodeNode(n)
			if err != nil {
				return nil, err
			}
			if isRoot || len(enc) >= 32 {
				proof = append(proof, enc)
			}
			isRoot = false
		}
		switch typed := n.(type) {
		case *leafNode:
			return proof, nil
		case *extNode:
			if len(path) < len(typed.key) || !bytes.Equal(typed.key, path[:len(typed.key)]) {
				return proof, nil // absence proof
			}
			path = path[len(typed.key):]
			n = typed.child
		case *branchNode:
			if len(path) == 0 {
				return proof, nil
			}
			n = typed.children[path[0]]
			path = path[1:]
		default:
			return nil, fmt.Errorf("trie: unexpected node %T in proof", n)
		}
	}
}

// VerifyProof checks a proof against a root hash and returns the proven
// value for key (nil when the proof demonstrates absence).
func VerifyProof(root types.Hash, key []byte, proof Proof) ([]byte, error) {
	// Index the proof nodes by their hash.
	byHash := make(map[types.Hash][]byte, len(proof))
	for _, enc := range proof {
		byHash[keccak.Sum256(enc)] = enc
	}
	path := keyNibbles(key)
	wantHash := root

	// Walk down from the root, re-decoding each node from the proof and
	// checking its hash matches the parent's reference.
	var current node
	enc, ok := byHash[wantHash]
	if !ok {
		if root == EmptyRoot {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: missing root node", ErrBadProof)
	}
	it, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	current, err = decodeNode(it)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
	}

	for {
		switch typed := current.(type) {
		case nil:
			return nil, nil
		case *leafNode:
			if bytes.Equal(typed.key, path) {
				return typed.val, nil
			}
			return nil, nil // proven absent
		case *extNode:
			if len(path) < len(typed.key) || !bytes.Equal(typed.key, path[:len(typed.key)]) {
				return nil, nil
			}
			path = path[len(typed.key):]
			current = typed.child
		case *branchNode:
			if len(path) == 0 {
				return typed.val, nil
			}
			current = typed.children[path[0]]
			path = path[1:]
		case hashNode:
			childEnc, ok := byHash[types.Hash(typed)]
			if !ok {
				return nil, fmt.Errorf("%w: missing node %s", ErrBadProof, types.Hash(typed))
			}
			childIt, err := rlp.Decode(childEnc)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
			}
			current, err = decodeNode(childIt)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadProof, err)
			}
		default:
			return nil, fmt.Errorf("%w: unexpected node %T", ErrBadProof, current)
		}
	}
}
