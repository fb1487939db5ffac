package state

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dmvcc/internal/trie"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// stateModel is the plain-map truth a backend's committed tries must encode.
type stateModel struct {
	accounts map[types.Address]Account // StorageRoot left zero
	storage  map[types.Address]map[types.Hash]u256.Int
}

func (m *stateModel) apply(ws *WriteSet) {
	touch := func(a types.Address) Account { return m.accounts[a] }
	for a, v := range ws.Balances {
		acc := touch(a)
		acc.Balance = v
		m.accounts[a] = acc
	}
	for a, v := range ws.Nonces {
		acc := touch(a)
		acc.Nonce = v
		m.accounts[a] = acc
	}
	for a, code := range ws.Codes {
		acc := touch(a)
		acc.CodeHash = types.Keccak(code)
		m.accounts[a] = acc
	}
	for a, slots := range ws.Storage {
		m.accounts[a] = touch(a)
		if m.storage[a] == nil {
			m.storage[a] = make(map[types.Hash]u256.Int)
		}
		for k, v := range slots {
			if v.IsZero() {
				delete(m.storage[a], k)
			} else {
				m.storage[a][k] = v
			}
		}
	}
}

// scratchTrie folds hashed-key pairs into a fresh trie and returns its root.
func scratchTrie(t *testing.T, kv map[types.Hash][]byte) types.Hash {
	t.Helper()
	keys := make([]types.Hash, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessHash(keys[i], keys[j]) })
	tr, _ := trie.New(trie.EmptyRoot, trie.NewMemStore())
	for _, k := range keys {
		if err := tr.Put(k[:], kv[k]); err != nil {
			t.Fatal(err)
		}
	}
	h, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// expect returns the model's accounts with their storage roots, each root
// computed from scratch, and the state root over them.
func (m *stateModel) expect(t *testing.T) (map[types.Address]Account, types.Hash) {
	t.Helper()
	accs := make(map[types.Address]Account, len(m.accounts))
	leaves := make(map[types.Hash][]byte, len(m.accounts))
	for a, acc := range m.accounts {
		slots := make(map[types.Hash][]byte, len(m.storage[a]))
		for k, v := range m.storage[a] {
			slots[types.Keccak(k[:])] = v.Bytes()
		}
		acc.StorageRoot = scratchTrie(t, slots)
		accs[a] = acc
		leaves[types.Keccak(a[:])] = encodeAccount(acc)
	}
	return accs, scratchTrie(t, leaves)
}

// checkCold opens the committed root cold over the backend's node store and
// requires every account and slot of the model to read back from it.
func checkCold(t *testing.T, b Backend, root types.Hash, accs map[types.Address]Account, m *stateModel) {
	t.Helper()
	at, err := trie.New(root, b.TrieStore())
	if err != nil {
		t.Fatal(err)
	}
	for a, want := range accs {
		hk := types.Keccak(a[:])
		enc, err := at.Get(hk[:])
		if err != nil {
			t.Fatalf("cold account %s: %v", a, err)
		}
		got, err := decodeAccount(enc)
		if err != nil {
			t.Fatal(err)
		}
		if string(encodeAccount(got)) != string(encodeAccount(want)) {
			t.Fatalf("cold account %s = %+v, want %+v", a, got, want)
		}
		st, err := trie.New(got.StorageRoot, b.TrieStore())
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range m.storage[a] {
			hk := types.Keccak(k[:])
			enc, err := st.Get(hk[:])
			if err != nil {
				t.Fatalf("cold slot %s/%s: %v", a, k, err)
			}
			if got := u256.FromBytes(enc); !got.Eq(&v) {
				t.Fatalf("cold slot %s/%s = %s, want %s", a, k, got.Hex(), v.Hex())
			}
		}
	}
}

// TestBackendIncrementalCommitDifferential commits random blocks — balance,
// nonce and code churn, slot writes, and blocks that delete most of an
// account's slots so its storage branches collapse — to the reference DB and
// to flat backends, and checks every commit against roots built from scratch
// over the full model and against a cold read-back of every account and slot.
func TestBackendIncrementalCommitDifferential(t *testing.T) {
	flat1, err := NewFlat(FlatOpts{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]Backend{"db": NewDB(), "flat1": flat1, "flatN": NewFlatMem()}
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			rng := rand.New(rand.NewSource(14))
			addrs := testAddrs(120)
			m := &stateModel{
				accounts: make(map[types.Address]Account),
				storage:  make(map[types.Address]map[types.Hash]u256.Int),
			}
			for blk := 0; blk < 30; blk++ {
				ws := NewWriteSet()
				for i := 0; i < 1+rng.Intn(60); i++ {
					a := addrs[rng.Intn(len(addrs))]
					switch rng.Intn(5) {
					case 0:
						ws.Balances[a] = u256.NewUint64(rng.Uint64()%1e9 + 1)
					case 1:
						ws.Nonces[a] = rng.Uint64() % 1000
					case 2:
						ws.Codes[a] = []byte{0x60, byte(rng.Intn(256)), 0x00}
					default:
						for s := 0; s < 1+rng.Intn(12); s++ {
							slot := types.HexToHash(fmt.Sprintf("0x%02x", rng.Intn(64)))
							ws.SetStorage(a, slot, u256.NewUint64(rng.Uint64()%1e6+1))
						}
					}
				}
				if blk%4 == 3 {
					// Delete three quarters of some accounts' slots.
					for _, a := range addrs {
						slots := m.storage[a]
						if len(slots) == 0 || rng.Intn(3) != 0 {
							continue
						}
						keys := make([]types.Hash, 0, len(slots))
						for k := range slots {
							keys = append(keys, k)
						}
						sort.Slice(keys, func(i, j int) bool { return lessHash(keys[i], keys[j]) })
						for _, k := range keys[:len(keys)*3/4] {
							ws.SetStorage(a, k, u256.Zero)
						}
					}
				}
				m.apply(ws)
				root, err := b.CommitWith(ws, 1+blk%4)
				if err != nil {
					t.Fatal(err)
				}
				accs, want := m.expect(t)
				if root != want {
					t.Fatalf("block %d: root %s != scratch root %s", blk, root, want)
				}
				checkCold(t, b, root, accs, m)
			}
		})
	}
}

// countingNodes counts node reads and writes through a trie.Store.
type countingNodes struct {
	trie.Store
	mu         sync.Mutex
	gets, puts int
}

func (c *countingNodes) GetNode(h types.Hash) ([]byte, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.Store.GetNode(h)
}

func (c *countingNodes) PutNode(h types.Hash, enc []byte) {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	c.Store.PutNode(h, enc)
}

func (c *countingNodes) reset() (gets, puts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gets, puts = c.gets, c.puts
	c.gets, c.puts = 0, 0
	return gets, puts
}

// TestBackendCommitIsIncremental is the O(dirty paths) gate: after 10k
// accounts are committed, a block that updates one balance may write at most
// the nodes on that account's trie path (depth+1) and resolve at most one
// node (the leaf it replaces). A commit that re-encodes the resident trie,
// or re-resolves the path from the root, fails it.
func TestBackendCommitIsIncremental(t *testing.T) {
	mk := map[string]func(trie.Store) Backend{
		"db": func(s trie.Store) Backend { return newDB(s) },
		"flat1": func(s trie.Store) Backend {
			fb, err := newFlat(FlatOpts{Shards: 1}, s)
			if err != nil {
				t.Fatal(err)
			}
			return fb
		},
		"flatN": func(s trie.Store) Backend {
			fb, err := newFlat(FlatOpts{}, s)
			if err != nil {
				t.Fatal(err)
			}
			return fb
		},
	}
	for name, newBackend := range mk {
		t.Run(name, func(t *testing.T) {
			nodes := &countingNodes{Store: trie.NewMemStore()}
			b := newBackend(nodes)
			defer b.Close()
			addrs := testAddrs(10_000)
			ws := NewWriteSet()
			for i, a := range addrs {
				ws.Balances[a] = u256.NewUint64(uint64(i) + 1)
			}
			if _, err := b.Commit(ws); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				a := addrs[i*997]
				ws := NewWriteSet()
				ws.Balances[a] = u256.NewUint64(1e9 + uint64(i))
				nodes.reset()
				root, err := b.Commit(ws)
				if err != nil {
					t.Fatal(err)
				}
				gets, puts := nodes.reset()
				at, _ := trie.New(root, nodes.Store)
				hk := types.Keccak(a[:])
				proof, err := at.Prove(hk[:])
				if err != nil {
					t.Fatal(err)
				}
				if gets > 1 || puts > len(proof) {
					t.Fatalf("update %d: %d node resolves and %d node writes; want <= 1 and <= depth+1 = %d",
						i, gets, puts, len(proof))
				}
			}
		})
	}
}
