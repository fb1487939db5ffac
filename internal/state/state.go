// Package state implements the blockchain state substrate: accounts with
// balances, nonces, code, and 256-bit storage slots; a committed StateDB
// backed by Merkle Patricia Tries whose roots serve as the equivalence
// oracle (paper RQ1); and a journaled Overlay used for serial execution and
// per-transaction buffering.
package state

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dmvcc/internal/trie"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// EmptyCodeHash is keccak-256 of empty code.
var EmptyCodeHash = types.Keccak(nil)

// Reader is a read-only view of blockchain state. The committed StateDB and
// every overlay implement it. Implementations return zero values for
// non-existent accounts, matching EVM semantics.
type Reader interface {
	// Balance returns the account's wei balance.
	Balance(addr types.Address) u256.Int
	// Nonce returns the account's transaction count.
	Nonce(addr types.Address) uint64
	// Code returns the account's contract code (nil for non-contracts).
	Code(addr types.Address) []byte
	// Storage returns the value of one 256-bit storage slot.
	Storage(addr types.Address, key types.Hash) u256.Int
	// Exists reports whether the account has any state.
	Exists(addr types.Address) bool
}

// Account is the persistent record of one address.
type Account struct {
	Balance     u256.Int
	Nonce       uint64
	CodeHash    types.Hash
	StorageRoot types.Hash
}

// WriteSet is the net effect of executing a block: absolute final values
// for every touched field. It is what executors hand to DB.Commit.
type WriteSet struct {
	Balances map[types.Address]u256.Int
	Nonces   map[types.Address]uint64
	Codes    map[types.Address][]byte
	Storage  map[types.Address]map[types.Hash]u256.Int
}

// NewWriteSet returns an empty write set.
func NewWriteSet() *WriteSet {
	return &WriteSet{
		Balances: make(map[types.Address]u256.Int),
		Nonces:   make(map[types.Address]uint64),
		Codes:    make(map[types.Address][]byte),
		Storage:  make(map[types.Address]map[types.Hash]u256.Int),
	}
}

// SetStorage records a storage write.
func (w *WriteSet) SetStorage(addr types.Address, key types.Hash, val u256.Int) {
	m, ok := w.Storage[addr]
	if !ok {
		m = make(map[types.Hash]u256.Int)
		w.Storage[addr] = m
	}
	m[key] = val
}

// Merge folds other into w, with other taking precedence.
func (w *WriteSet) Merge(other *WriteSet) {
	for a, v := range other.Balances {
		w.Balances[a] = v
	}
	for a, v := range other.Nonces {
		w.Nonces[a] = v
	}
	for a, v := range other.Codes {
		w.Codes[a] = v
	}
	for a, m := range other.Storage {
		for k, v := range m {
			w.SetStorage(a, k, v)
		}
	}
}

// Len returns the total number of individual writes.
func (w *WriteSet) Len() int {
	n := len(w.Balances) + len(w.Nonces) + len(w.Codes)
	for _, m := range w.Storage {
		n += len(m)
	}
	return n
}

// DB is the committed state database: flat maps for fast reads, tries for
// root computation, and the history of per-block roots (the StateDB of the
// paper). DB is safe for concurrent readers; Commit must be exclusive.
type DB struct {
	mu       sync.RWMutex
	accounts map[types.Address]Account
	storage  map[types.Address]map[types.Hash]u256.Int
	codes    map[types.Hash][]byte

	store        trie.Store
	accountTrie  *trie.Trie
	storageTries map[types.Address]*trie.Trie

	root  types.Hash
	roots []types.Hash
}

var _ Backend = (*DB)(nil)

// NewDB returns an empty state database at the empty root.
func NewDB() *DB {
	return newDB(trie.NewMemStore())
}

// newDB returns an empty state database over the given node store.
func newDB(store trie.Store) *DB {
	at, err := trie.New(trie.EmptyRoot, store)
	if err != nil {
		// New on an empty root cannot fail; treat as programmer error.
		panic(fmt.Sprintf("state: new account trie: %v", err))
	}
	return &DB{
		accounts:     make(map[types.Address]Account),
		storage:      make(map[types.Address]map[types.Hash]u256.Int),
		codes:        make(map[types.Hash][]byte),
		store:        store,
		accountTrie:  at,
		storageTries: make(map[types.Address]*trie.Trie),
		root:         trie.EmptyRoot,
		roots:        []types.Hash{trie.EmptyRoot},
	}
}

// Balance implements Reader.
func (db *DB) Balance(addr types.Address) u256.Int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.accounts[addr].Balance
}

// Nonce implements Reader.
func (db *DB) Nonce(addr types.Address) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.accounts[addr].Nonce
}

// Code implements Reader.
func (db *DB) Code(addr types.Address) []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	acc, ok := db.accounts[addr]
	if !ok || acc.CodeHash.IsZero() || acc.CodeHash == EmptyCodeHash {
		return nil
	}
	return db.codes[acc.CodeHash]
}

// Storage implements Reader.
func (db *DB) Storage(addr types.Address, key types.Hash) u256.Int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.storage[addr][key]
}

// Exists implements Reader.
func (db *DB) Exists(addr types.Address) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.accounts[addr]
	return ok
}

// Root returns the current committed state root.
func (db *DB) Root() types.Hash {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.root
}

// Roots returns the history of committed roots (index = block height).
func (db *DB) Roots() []types.Hash {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]types.Hash, len(db.roots))
	copy(out, db.roots)
	return out
}

// TrieStore implements Backend.
func (db *DB) TrieStore() trie.Store { return db.store }

// CodeByHash implements Backend.
func (db *DB) CodeByHash(h types.Hash) []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.codes[h]
}

// Close implements Backend. The in-memory reference DB holds no external
// resources.
func (db *DB) Close() error { return nil }

// accountTrieValue encodes an account record for the account trie.
func accountTrieValue(acc Account) []byte {
	return encodeAccount(acc)
}

// Commit applies a write set atomically, updates the tries, records and
// returns the new state root. The paper's "flush last write of every access
// sequence to StateDB and make a new snapshot" step lands here. Storage
// tries of distinct accounts are independent, so their updates and subtree
// hashes run on a bounded worker group; the account trie is then updated
// serially in sorted address order, which keeps the root byte-identical to
// a fully serial commit (see DESIGN.md, "Parallel commit determinism").
func (db *DB) Commit(ws *WriteSet) (types.Hash, error) {
	return db.CommitWith(ws, runtime.GOMAXPROCS(0))
}

// storageResult is the parallel phase's output for one account: the new
// storage root and the flat-map updates to apply under db.mu.
type storageResult struct {
	root types.Hash
	err  error
}

// CommitWith is Commit with an explicit worker count for the storage-trie
// phase. workers <= 1 commits fully serially; any worker count produces
// byte-identical roots and trie-store contents (nodes are content-addressed
// and the account trie is always updated in sorted address order).
func (db *DB) CommitWith(ws *WriteSet, workers int) (types.Hash, error) {
	db.mu.Lock()
	defer db.mu.Unlock()

	touched := make(map[types.Address]struct{})
	for a := range ws.Balances {
		touched[a] = struct{}{}
	}
	for a := range ws.Nonces {
		touched[a] = struct{}{}
	}
	for a := range ws.Codes {
		touched[a] = struct{}{}
	}
	for a := range ws.Storage {
		touched[a] = struct{}{}
	}

	// Deterministic iteration keeps trie-store contents reproducible.
	order := make([]types.Address, 0, len(touched))
	for a := range touched {
		order = append(order, a)
	}
	sort.Slice(order, func(i, j int) bool {
		return lessAddr(order[i], order[j])
	})

	// Phase 1: update every touched storage trie and hash its new root.
	// Tries and flat maps are pre-opened serially so workers only ever
	// mutate per-account structures plus the (concurrency-safe) node store.
	storageAddrs := make([]types.Address, 0, len(ws.Storage))
	for _, addr := range order {
		if _, ok := ws.Storage[addr]; !ok {
			continue
		}
		if _, err := db.storageTrie(addr, db.accounts[addr].StorageRoot); err != nil {
			return types.Hash{}, err
		}
		if db.storage[addr] == nil {
			db.storage[addr] = make(map[types.Hash]u256.Int, len(ws.Storage[addr]))
		}
		storageAddrs = append(storageAddrs, addr)
	}
	results := make(map[types.Address]storageResult, len(storageAddrs))
	if workers <= 1 || len(storageAddrs) < 2 {
		for _, addr := range storageAddrs {
			root, err := db.commitStorage(addr, ws.Storage[addr])
			results[addr] = storageResult{root: root, err: err}
		}
	} else {
		if workers > len(storageAddrs) {
			workers = len(storageAddrs)
		}
		var (
			wg   sync.WaitGroup
			rmu  sync.Mutex
			next atomic.Int64
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(storageAddrs)) {
						return
					}
					addr := storageAddrs[i]
					root, err := db.commitStorage(addr, ws.Storage[addr])
					rmu.Lock()
					results[addr] = storageResult{root: root, err: err}
					rmu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	for _, addr := range storageAddrs {
		if res := results[addr]; res.err != nil {
			return types.Hash{}, res.err
		}
	}

	// Phase 2 (serial, deterministic): fold account fields and the storage
	// roots into the account trie in sorted address order.
	for _, addr := range order {
		acc := db.accounts[addr]
		if v, ok := ws.Balances[addr]; ok {
			acc.Balance = v
		}
		if v, ok := ws.Nonces[addr]; ok {
			acc.Nonce = v
		}
		if code, ok := ws.Codes[addr]; ok {
			h := types.Keccak(code)
			db.codes[h] = code
			acc.CodeHash = h
		}
		if res, ok := results[addr]; ok {
			acc.StorageRoot = res.root
		}
		db.accounts[addr] = acc

		hk := types.Keccak(addr[:])
		if err := db.accountTrie.Put(hk[:], accountTrieValue(acc)); err != nil {
			return types.Hash{}, fmt.Errorf("account put: %w", err)
		}
	}

	root, err := db.accountTrie.Commit()
	if err != nil {
		return types.Hash{}, fmt.Errorf("account commit: %w", err)
	}
	db.root = root
	db.roots = append(db.roots, root)
	return root, nil
}

// commitStorage applies one account's slot writes to its (pre-opened)
// storage trie and flat map and returns the committed subtree root. Callers
// guarantee exclusive access to the account's trie and flat map; the shared
// node store is concurrency-safe.
func (db *DB) commitStorage(addr types.Address, slots map[types.Hash]u256.Int) (types.Hash, error) {
	st := db.storageTries[addr]
	flat := db.storage[addr]
	keys := make([]types.Hash, 0, len(slots))
	for k := range slots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessHash(keys[i], keys[j]) })
	for _, k := range keys {
		v := slots[k]
		hk := types.Keccak(k[:])
		if v.IsZero() {
			delete(flat, k)
			if err := st.Delete(hk[:]); err != nil {
				return types.Hash{}, fmt.Errorf("storage delete: %w", err)
			}
		} else {
			flat[k] = v
			if err := st.Put(hk[:], v.Bytes()); err != nil {
				return types.Hash{}, fmt.Errorf("storage put: %w", err)
			}
		}
	}
	sroot, err := st.Commit()
	if err != nil {
		return types.Hash{}, fmt.Errorf("storage commit: %w", err)
	}
	return sroot, nil
}

// storageTrie returns (caching) the storage trie for addr at the given root.
func (db *DB) storageTrie(addr types.Address, root types.Hash) (*trie.Trie, error) {
	if st, ok := db.storageTries[addr]; ok {
		return st, nil
	}
	st, err := trie.New(root, db.store)
	if err != nil {
		return nil, fmt.Errorf("open storage trie: %w", err)
	}
	db.storageTries[addr] = st
	return st, nil
}

func lessAddr(a, b types.Address) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func lessHash(a, b types.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
