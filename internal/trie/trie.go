// Package trie implements a hexary Merkle Patricia Trie compatible in
// structure with Ethereum's: leaf/extension nodes carry hex-prefix-encoded
// nibble paths, branch nodes have sixteen children plus a value slot, and
// node references shorter than 32 bytes are embedded in their parent while
// longer ones are referenced by keccak-256 hash.
//
// The trie is the oracle for the paper's RQ1: two executions are equivalent
// iff they commit to identical roots.
package trie

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"dmvcc/internal/keccak"
	"dmvcc/internal/rlp"
	"dmvcc/internal/types"
)

// EmptyRoot is the root hash of an empty trie: keccak(rlp("")).
var EmptyRoot = types.Keccak([]byte{0x80})

// ErrNotFound reports a missing key on Get.
var ErrNotFound = errors.New("trie: key not found")

// node is one of: *leafNode, *extNode, *branchNode, hashNode, or nil
// (empty subtree).
type node interface{}

type leafNode struct {
	key  []byte // remaining nibble path
	val  []byte
	hash types.Hash // see branchNode.hash
}

type extNode struct {
	key   []byte // shared nibble path
	child node
	hash  types.Hash // see branchNode.hash
}

type branchNode struct {
	children [16]node
	val      []byte // value terminating exactly at this branch
	// hash is the hash this node was last committed (or resolved) under,
	// zero while the node is dirty. It is only ever set on a node whose
	// encoding is at least 32 bytes — a hash-referenced node — and only once
	// that encoding and everything reachable from it are in the store, so a
	// clean subtree's reference is its cached hash with no re-encoding.
	// Copy-on-write insert and del build every node they change afresh (or
	// clear the field on a copy), so a dirty path never carries a stale hash.
	hash types.Hash
}

// hashNode references a collapsed node stored in the Store by hash.
type hashNode types.Hash

// cachedHash returns the hash n was last committed or resolved under, or
// false when n is dirty or is embedded in its parent.
func cachedHash(n node) (types.Hash, bool) {
	var h types.Hash
	switch n := n.(type) {
	case *leafNode:
		h = n.hash
	case *extNode:
		h = n.hash
	case *branchNode:
		h = n.hash
	}
	return h, !h.IsZero()
}

// setHash records h as the committed hash of a resident node.
func setHash(n node, h types.Hash) {
	switch n := n.(type) {
	case *leafNode:
		n.hash = h
	case *extNode:
		n.hash = h
	case *branchNode:
		n.hash = h
	}
}

// Store persists encoded trie nodes by hash. Implementations must be safe
// for concurrent use: the state database commits independent storage tries
// from multiple goroutines against one shared store. Nodes are content-
// addressed (hash == keccak(encoding)), so concurrent PutNode calls for the
// same hash always carry identical bytes and any interleaving converges to
// the same store contents.
type Store interface {
	// GetNode returns the encoded node for h, or an error if missing.
	GetNode(h types.Hash) ([]byte, error)
	// PutNode stores the encoded node under h. The caller may reuse enc
	// once PutNode returns, so an implementation copies what it keeps.
	PutNode(h types.Hash, enc []byte)
}

// slabSize is the size of one MemStore arena slab.
const slabSize = 1 << 20

// span locates one stored encoding inside the MemStore arena.
type span struct {
	slab, off, n uint32
}

// MemStore is an in-memory node store, safe for concurrent use. Encodings
// are copied into append-only 1 MiB byte slabs and indexed by a pointer-free
// map, so a store of millions of nodes is a few large noscan allocations for
// the garbage collector rather than one object per node. Nodes are
// content-addressed, so a repeated PutNode for a stored hash is a no-op.
type MemStore struct {
	mu    sync.RWMutex
	index map[types.Hash]span
	slabs [][]byte
	cur   int // slab receiving small encodings; -1 before the first put
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory node store.
func NewMemStore() *MemStore {
	return &MemStore{index: make(map[types.Hash]span), cur: -1}
}

// GetNode implements Store. The returned slice aliases the arena and must
// not be written; its capacity is clipped, so appending to it copies rather
// than clobbering the next encoding in the slab.
func (s *MemStore) GetNode(h types.Hash) ([]byte, error) {
	s.mu.RLock()
	sp, ok := s.index[h]
	var slab []byte
	if ok {
		slab = s.slabs[sp.slab]
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("trie: missing node %s", h)
	}
	end := sp.off + sp.n
	return slab[sp.off:end:end], nil
}

// PutNode implements Store. It copies enc into the arena.
func (s *MemStore) PutNode(h types.Hash, enc []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[h]; ok {
		return
	}
	if len(enc) > slabSize {
		// Oversized encodings get a slab of their own; small puts keep
		// filling the current slab.
		s.slabs = append(s.slabs, append([]byte(nil), enc...))
		s.index[h] = span{slab: uint32(len(s.slabs) - 1), n: uint32(len(enc))}
		return
	}
	if s.cur < 0 || len(s.slabs[s.cur])+len(enc) > slabSize {
		s.slabs = append(s.slabs, make([]byte, 0, slabSize))
		s.cur = len(s.slabs) - 1
	}
	slab := s.slabs[s.cur]
	off := len(slab)
	s.slabs[s.cur] = append(slab, enc...)
	s.index[h] = span{slab: uint32(s.cur), off: uint32(off), n: uint32(len(enc))}
}

// Len returns the number of stored nodes.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Trie is a mutable Merkle Patricia Trie over a node store.
type Trie struct {
	store Store
	root  node
}

// New returns a trie rooted at root. Use EmptyRoot (or the zero hash) for an
// empty trie.
func New(root types.Hash, store Store) (*Trie, error) {
	t := &Trie{store: store}
	if root == EmptyRoot || root.IsZero() {
		return t, nil
	}
	t.root = hashNode(root)
	return t, nil
}

// keyNibbles expands a byte key into its nibble path.
func keyNibbles(key []byte) []byte {
	nib := make([]byte, len(key)*2)
	for i, b := range key {
		nib[i*2] = b >> 4
		nib[i*2+1] = b & 0x0f
	}
	return nib
}

// appendHexPrefix appends the encoding of a nibble path with the
// leaf/extension flag, per the Ethereum hex-prefix specification, to dst.
func appendHexPrefix(dst, nibbles []byte, leaf bool) []byte {
	flag := byte(0)
	if leaf {
		flag = 2
	}
	i := 0
	if len(nibbles)%2 == 1 {
		dst = append(dst, (flag+1)<<4|nibbles[0])
		i = 1
	} else {
		dst = append(dst, flag<<4)
	}
	for ; i < len(nibbles); i += 2 {
		dst = append(dst, nibbles[i]<<4|nibbles[i+1])
	}
	return dst
}

// parseHexPrefix decodes a hex-prefix path into nibbles and the leaf flag.
func parseHexPrefix(b []byte) (nibbles []byte, leaf bool, err error) {
	if len(b) == 0 {
		return nil, false, errors.New("trie: empty hex-prefix path")
	}
	flag := b[0] >> 4
	leaf = flag >= 2
	odd := flag&1 == 1
	nibbles = make([]byte, 0, 2*len(b)-1)
	if odd {
		nibbles = append(nibbles, b[0]&0x0f)
	}
	for _, c := range b[1:] {
		nibbles = append(nibbles, c>>4, c&0x0f)
	}
	return nibbles, leaf, nil
}

// Get returns the value stored under key, or ErrNotFound.
func (t *Trie) Get(key []byte) ([]byte, error) {
	return t.get(t.root, keyNibbles(key))
}

func (t *Trie) get(n node, path []byte) ([]byte, error) {
	switch n := n.(type) {
	case nil:
		return nil, ErrNotFound
	case *leafNode:
		if bytes.Equal(n.key, path) {
			return n.val, nil
		}
		return nil, ErrNotFound
	case *extNode:
		if len(path) < len(n.key) || !bytes.Equal(n.key, path[:len(n.key)]) {
			return nil, ErrNotFound
		}
		return t.get(n.child, path[len(n.key):])
	case *branchNode:
		if len(path) == 0 {
			if n.val == nil {
				return nil, ErrNotFound
			}
			return n.val, nil
		}
		return t.get(n.children[path[0]], path[1:])
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, err
		}
		return t.get(resolved, path)
	default:
		return nil, fmt.Errorf("trie: unknown node type %T", n)
	}
}

// Put inserts or updates key -> value. Empty values delete the key.
func (t *Trie) Put(key, value []byte) error {
	if len(value) == 0 {
		return t.Delete(key)
	}
	newRoot, err := t.insert(t.root, keyNibbles(key), value)
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

func commonPrefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func (t *Trie) insert(n node, path []byte, value []byte) (node, error) {
	switch n := n.(type) {
	case nil:
		return &leafNode{key: path, val: value}, nil
	case *leafNode:
		cp := commonPrefixLen(n.key, path)
		if cp == len(n.key) && cp == len(path) {
			return &leafNode{key: path, val: value}, nil
		}
		branch := &branchNode{}
		if err := t.branchSet(branch, n.key[cp:], n.val); err != nil {
			return nil, err
		}
		if err := t.branchSet(branch, path[cp:], value); err != nil {
			return nil, err
		}
		if cp > 0 {
			return &extNode{key: path[:cp], child: branch}, nil
		}
		return branch, nil
	case *extNode:
		cp := commonPrefixLen(n.key, path)
		if cp == len(n.key) {
			child, err := t.insert(n.child, path[cp:], value)
			if err != nil {
				return nil, err
			}
			return &extNode{key: n.key, child: child}, nil
		}
		// Split the extension at cp.
		branch := &branchNode{}
		// Existing child goes under nibble n.key[cp].
		rest := n.key[cp+1:]
		if len(rest) > 0 {
			branch.children[n.key[cp]] = &extNode{key: rest, child: n.child}
		} else {
			branch.children[n.key[cp]] = n.child
		}
		if err := t.branchSet(branch, path[cp:], value); err != nil {
			return nil, err
		}
		if cp > 0 {
			return &extNode{key: path[:cp], child: branch}, nil
		}
		return branch, nil
	case *branchNode:
		nb := *n
		nb.hash = types.Hash{}
		if len(path) == 0 {
			nb.val = value
			return &nb, nil
		}
		child, err := t.insert(nb.children[path[0]], path[1:], value)
		if err != nil {
			return nil, err
		}
		nb.children[path[0]] = child
		return &nb, nil
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, err
		}
		return t.insert(resolved, path, value)
	default:
		return nil, fmt.Errorf("trie: unknown node type %T", n)
	}
}

// branchSet installs a (possibly empty) remaining path with a value under a
// fresh branch node.
func (t *Trie) branchSet(b *branchNode, path []byte, value []byte) error {
	if len(path) == 0 {
		b.val = value
		return nil
	}
	child, err := t.insert(b.children[path[0]], path[1:], value)
	if err != nil {
		return err
	}
	b.children[path[0]] = child
	return nil
}

// Delete removes key from the trie. Deleting a missing key is a no-op.
func (t *Trie) Delete(key []byte) error {
	newRoot, _, err := t.del(t.root, keyNibbles(key))
	if err != nil {
		return err
	}
	t.root = newRoot
	return nil
}

func (t *Trie) del(n node, path []byte) (node, bool, error) {
	switch n := n.(type) {
	case nil:
		return nil, false, nil
	case *leafNode:
		if bytes.Equal(n.key, path) {
			return nil, true, nil
		}
		return n, false, nil
	case *extNode:
		if len(path) < len(n.key) || !bytes.Equal(n.key, path[:len(n.key)]) {
			return n, false, nil
		}
		child, changed, err := t.del(n.child, path[len(n.key):])
		if err != nil || !changed {
			return n, changed, err
		}
		return t.collapseExt(n.key, child)
	case *branchNode:
		nb := *n
		nb.hash = types.Hash{}
		if len(path) == 0 {
			if nb.val == nil {
				return n, false, nil
			}
			nb.val = nil
		} else {
			child, changed, err := t.del(nb.children[path[0]], path[1:])
			if err != nil || !changed {
				return n, changed, err
			}
			nb.children[path[0]] = child
		}
		return t.collapseBranch(&nb)
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil, false, err
		}
		return t.del(resolved, path)
	default:
		return nil, false, fmt.Errorf("trie: unknown node type %T", n)
	}
}

// collapseExt merges an extension with its possibly-degenerate child after
// a deletion.
func (t *Trie) collapseExt(prefix []byte, child node) (node, bool, error) {
	if h, ok := child.(hashNode); ok {
		resolved, err := t.resolve(h)
		if err != nil {
			return nil, false, err
		}
		child = resolved
	}
	switch c := child.(type) {
	case nil:
		return nil, true, nil
	case *leafNode:
		return &leafNode{key: concatNibbles(prefix, c.key), val: c.val}, true, nil
	case *extNode:
		return &extNode{key: concatNibbles(prefix, c.key), child: c.child}, true, nil
	default:
		return &extNode{key: prefix, child: child}, true, nil
	}
}

// collapseBranch simplifies a branch that may have dropped to one child or
// value-only after a deletion.
func (t *Trie) collapseBranch(b *branchNode) (node, bool, error) {
	liveIdx := -1
	liveCount := 0
	for i, c := range b.children {
		if c != nil {
			liveIdx = i
			liveCount++
		}
	}
	switch {
	case liveCount == 0 && b.val == nil:
		return nil, true, nil
	case liveCount == 0:
		return &leafNode{key: nil, val: b.val}, true, nil
	case liveCount == 1 && b.val == nil:
		return t.collapseExt([]byte{byte(liveIdx)}, b.children[liveIdx])
	default:
		return b, true, nil
	}
}

func concatNibbles(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// resolve loads and decodes a hash-referenced node from the store. The
// decoded node is clean: it carries h as its cached hash (unless it is a
// sub-32-byte root, which a parent would embed rather than reference).
func (t *Trie) resolve(h hashNode) (node, error) {
	enc, err := t.store.GetNode(types.Hash(h))
	if err != nil {
		return nil, err
	}
	it, err := rlp.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("decode node %s: %w", types.Hash(h), err)
	}
	n, err := decodeNode(it)
	if err != nil {
		return nil, err
	}
	if len(enc) >= 32 {
		setHash(n, types.Hash(h))
	}
	return n, nil
}

func decodeNode(it rlp.Item) (node, error) {
	if !it.IsList {
		return nil, errors.New("trie: node must be an RLP list")
	}
	switch len(it.List) {
	case 2:
		path, leaf, err := parseHexPrefix(it.List[0].Str)
		if err != nil {
			return nil, err
		}
		if leaf {
			return &leafNode{key: path, val: it.List[1].Str}, nil
		}
		child, err := decodeRef(it.List[1])
		if err != nil {
			return nil, err
		}
		return &extNode{key: path, child: child}, nil
	case 17:
		b := &branchNode{}
		for i := 0; i < 16; i++ {
			child, err := decodeRef(it.List[i])
			if err != nil {
				return nil, err
			}
			b.children[i] = child
		}
		if len(it.List[16].Str) > 0 {
			b.val = it.List[16].Str
		}
		return b, nil
	default:
		return nil, fmt.Errorf("trie: node with %d items", len(it.List))
	}
}

func decodeRef(it rlp.Item) (node, error) {
	if it.IsList {
		// Embedded (short) node.
		return decodeNode(it)
	}
	switch len(it.Str) {
	case 0:
		return nil, nil
	case 32:
		return hashNode(types.BytesToHash(it.Str)), nil
	default:
		return nil, fmt.Errorf("trie: bad node reference length %d", len(it.Str))
	}
}

// ref is a node's reference form inside its parent's encoding: the node's
// own encoding when that is shorter than 32 bytes (embedded), else its hash.
type ref struct {
	emb  []byte
	hash types.Hash
}

func (r *ref) size() int {
	if r.emb != nil {
		return len(r.emb)
	}
	return 1 + len(r.hash)
}

func (r *ref) appendTo(dst []byte) []byte {
	if r.emb != nil {
		return append(dst, r.emb...)
	}
	return append(append(dst, 0x80+byte(len(r.hash))), r.hash[:]...)
}

// encoder is one hashing pass over a trie's resident nodes. With persist it
// commits: every dirty node it reaches is written to the store and the
// collapsed forms are swapped into the parents' child slots (see commitRef).
// Without persist nothing is written or mutated.
type encoder struct {
	t       *Trie
	persist bool
	// scratch holds hash-referenced encodings. Each is hashed and handed to
	// the store (which copies what it keeps) before the next node is
	// encoded, so one buffer serves the whole pass.
	scratch []byte
}

// encodeNode returns the RLP encoding of n in a buffer the caller owns,
// writing and mutating nothing.
func (t *Trie) encodeNode(n node) ([]byte, error) {
	e := encoder{t: t}
	return e.encode(n)
}

// alloc returns a buffer holding the header of a list with the given
// payload size, with room for the payload. Encodings of 32 bytes or more go
// to the scratch buffer and live until the next alloc; shorter ones are
// embedded in a parent and get a buffer of their own.
func (e *encoder) alloc(payload int) []byte {
	size := rlp.ListSize(payload)
	var dst []byte
	if size >= 32 {
		if cap(e.scratch) < size {
			e.scratch = make([]byte, 0, size)
		}
		dst = e.scratch[:0]
	} else {
		dst = make([]byte, 0, size)
	}
	return rlp.AppendListHeader(dst, payload)
}

// encode returns the RLP encoding of n; see alloc for its lifetime.
func (e *encoder) encode(n node) ([]byte, error) {
	var hp [40]byte // hex-prefix path of a 32-byte key, on the stack
	switch n := n.(type) {
	case *leafNode:
		path := appendHexPrefix(hp[:0], n.key, true)
		dst := e.alloc(rlp.StringSize(path) + rlp.StringSize(n.val))
		dst = rlp.AppendString(dst, path)
		return rlp.AppendString(dst, n.val), nil
	case *extNode:
		child, r, err := e.commitRef(n.child)
		if err != nil {
			return nil, err
		}
		if e.persist {
			n.child = child
		}
		path := appendHexPrefix(hp[:0], n.key, false)
		dst := e.alloc(rlp.StringSize(path) + r.size())
		dst = rlp.AppendString(dst, path)
		return r.appendTo(dst), nil
	case *branchNode:
		var refs [16]ref
		payload := rlp.StringSize(n.val)
		for i, c := range n.children {
			if c == nil {
				payload++ // the empty string
				continue
			}
			child, r, err := e.commitRef(c)
			if err != nil {
				return nil, err
			}
			if e.persist {
				n.children[i] = child
			}
			refs[i] = r
			payload += r.size()
		}
		dst := e.alloc(payload)
		for i, c := range n.children {
			if c == nil {
				dst = append(dst, 0x80)
				continue
			}
			dst = refs[i].appendTo(dst)
		}
		return rlp.AppendString(dst, n.val), nil
	default:
		return nil, fmt.Errorf("trie: cannot encode node type %T", n)
	}
}

// commitRef returns the reference form of n for inclusion in a parent and
// the node the parent should hold from now on. A clean node answers from its
// cached hash without re-encoding. With persist a dirty hash-referenced node
// is written to the store; a leaf then collapses to its hashNode (the next
// update resolves just that leaf), while branches and extensions stay
// resident with the hash cached, so the next commit re-encodes only the
// paths that changed. Without persist n is returned unchanged.
func (e *encoder) commitRef(n node) (node, ref, error) {
	if h, ok := n.(hashNode); ok {
		return n, ref{hash: types.Hash(h)}, nil
	}
	if h, ok := cachedHash(n); ok {
		if _, leaf := n.(*leafNode); leaf && e.persist {
			return hashNode(h), ref{hash: h}, nil
		}
		return n, ref{hash: h}, nil
	}
	enc, err := e.encode(n)
	if err != nil {
		return nil, ref{}, err
	}
	if len(enc) < 32 {
		return n, ref{emb: enc}, nil
	}
	h := types.Hash(keccak.Sum256(enc))
	if !e.persist {
		return n, ref{hash: h}, nil
	}
	e.t.store.PutNode(h, enc)
	if _, leaf := n.(*leafNode); leaf {
		return hashNode(h), ref{hash: h}, nil
	}
	setHash(n, h)
	return n, ref{hash: h}, nil
}

// Hash returns the current root hash without persisting or caching anything:
// a later Commit still writes every dirty node.
func (t *Trie) Hash() (types.Hash, error) {
	return t.rootHash(false)
}

// Commit persists every dirty node to the store and returns the root hash.
// The work is proportional to the paths changed since the last commit: clean
// subtrees answer from their cached hashes. Afterwards the branch and
// extension skeleton stays resident (hashes cached) and committed leaves are
// held as hash references, so resident memory is about a sixteenth of the
// key count and the next update resolves only the leaf it replaces.
func (t *Trie) Commit() (types.Hash, error) {
	return t.rootHash(true)
}

func (t *Trie) rootHash(persist bool) (types.Hash, error) {
	if t.root == nil {
		return EmptyRoot, nil
	}
	if h, ok := t.root.(hashNode); ok {
		return types.Hash(h), nil
	}
	if h, ok := cachedHash(t.root); ok {
		return h, nil
	}
	e := encoder{t: t, persist: persist}
	enc, err := e.encode(t.root)
	if err != nil {
		return types.Hash{}, err
	}
	h := types.Hash(keccak.Sum256(enc))
	if persist {
		t.store.PutNode(h, enc)
		if len(enc) >= 32 {
			setHash(t.root, h)
		}
	}
	return h, nil
}
