package state

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmvcc/internal/state/kvdisk"
	"dmvcc/internal/trie"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// flatStore is the key-value substrate behind a FlatBackend: plain
// account/slot/code records with no trie structure. Two implementations
// exist — memFlatStore (maps) and diskFlatStore (kvdisk logs) — and the
// backend's commit logic is identical over both. All methods are called with
// the backend's mutex held (read methods under RLock), so implementations
// need no locking of their own beyond what their substrate requires.
type flatStore interface {
	getAccount(addr types.Address) (Account, bool, error)
	putAccount(addr types.Address, acc Account) error
	getSlot(addr types.Address, key types.Hash) (u256.Int, bool, error)
	putSlot(addr types.Address, key types.Hash, val u256.Int) error
	deleteSlot(addr types.Address, key types.Hash) error
	getCode(h types.Hash) ([]byte, error)
	putCode(h types.Hash, code []byte) error
	// putRoots persists the committed-root history (no-op in memory); flush
	// forces buffered writes down (the disk store's chaos flush point).
	putRoots(roots []types.Hash) error
	flush() error
	close() error
}

// slotWrite is one captured storage write (zero value = delete), in the
// deterministic order the trie job applies them.
type slotWrite struct {
	key types.Hash
	val u256.Int
}

// trieJob is the deferred authenticated-commit work for one block: the
// account field values captured at flat-apply time plus the block's storage
// writes. Jobs run strictly FIFO on the background committer, so each job
// sees exactly the storage roots its predecessor left behind.
type trieJob struct {
	order    []types.Address
	accounts map[types.Address]Account // Balance/Nonce/CodeHash as of this block
	storage  map[types.Address][]slotWrite
	workers  int
	flatNs   int64
	res      chan CommitResult
}

// FlatBackend is the flat-KV state backend of this PR's tentpole: reads are
// plain map (or disk-index) lookups that never touch a trie node, and the
// Merkle commitment is built lazily at commit time from the block's dirty
// set only. The account trie is key-range sharded (trie.ShardCount subtries
// by first nibble of the hashed address) so shard hashing runs in parallel,
// and commits can run asynchronously — flat state applies synchronously,
// trie hashing rides a background FIFO committer — taking the authenticated
// commit off the execution pipeline's critical path.
//
// FlatBackend produces byte-identical roots to the reference trie-backed DB
// for every commit history; the cross-backend differential tests enforce it.
type FlatBackend struct {
	mu sync.RWMutex // guards fs, root, roots, lastStats
	fs flatStore

	nodes  trie.Store
	shards int
	// Exactly one of sharded/plain is non-nil, per the shard count. Only the
	// committer goroutine touches them after construction.
	sharded *trie.ShardedTrie
	plain   *trie.Trie

	root      types.Hash
	roots     []types.Hash
	lastStats CommitStats

	enqMu  sync.Mutex // serializes flat-apply + enqueue so jobs land in commit order
	jobs   chan *trieJob
	done   chan struct{}
	closed bool

	// disk is non-nil for disk-backed stores; used for fault-hook wiring and
	// Close.
	disk *diskFlatStore
	dns  *diskNodeStore

	// recInfo records what the opening recovery did (disk backends only).
	recInfo *RecoveryInfo
}

var (
	_ Backend        = (*FlatBackend)(nil)
	_ AsyncCommitter = (*FlatBackend)(nil)
)

// FlatOpts configures a FlatBackend.
type FlatOpts struct {
	// Shards is the account-trie fan-out: 1 (single trie) or
	// trie.ShardCount (parallel shard hashing). 0 defaults to
	// trie.ShardCount.
	Shards int
	// Dir, when non-empty, backs the flat records and trie nodes with
	// log-structured files under this directory, bounding resident memory to
	// the key indexes. Empty keeps everything in memory.
	Dir string
}

// NewFlat returns a FlatBackend at the empty root.
func NewFlat(opts FlatOpts) (*FlatBackend, error) {
	return newFlat(opts, trie.NewMemStore())
}

// newFlat is NewFlat with the trie-node store of an in-memory backend
// supplied by the caller (unused when opts.Dir is set).
func newFlat(opts FlatOpts, memNodes trie.Store) (*FlatBackend, error) {
	shards := opts.Shards
	if shards == 0 {
		shards = trie.ShardCount
	}
	if shards != 1 && shards != trie.ShardCount {
		return nil, fmt.Errorf("state: flat backend supports 1 or %d shards, got %d", trie.ShardCount, shards)
	}
	fb := &FlatBackend{
		shards: shards,
		root:   trie.EmptyRoot,
		roots:  []types.Hash{trie.EmptyRoot},
		jobs:   make(chan *trieJob, 64),
		done:   make(chan struct{}),
	}
	if opts.Dir == "" {
		fb.fs = newMemFlatStore()
		fb.nodes = memNodes
	} else {
		dfs, dns, flatRec, nodesRec, err := openDiskStores(opts.Dir)
		if err != nil {
			return nil, err
		}
		fb.fs = dfs
		fb.nodes = dns
		fb.disk = dfs
		fb.dns = dns
		if err := fb.recoverDisk(flatRec, nodesRec); err != nil {
			dfs.kv.Close()
			dns.kv.Close()
			return nil, err
		}
	}
	if shards == trie.ShardCount {
		st, err := trie.OpenSharded(fb.root, fb.nodes)
		if err != nil {
			return nil, err
		}
		fb.sharded = st
	} else {
		t, err := trie.New(fb.root, fb.nodes)
		if err != nil {
			return nil, err
		}
		fb.plain = t
	}
	go fb.committerLoop()
	return fb, nil
}

// NewFlatMem returns an in-memory FlatBackend with the default shard count.
// It cannot fail, making it a drop-in for state.NewDB in tests and tools.
func NewFlatMem() *FlatBackend {
	fb, err := NewFlat(FlatOpts{})
	if err != nil {
		panic(fmt.Sprintf("state: NewFlatMem: %v", err))
	}
	return fb
}

// SetKVFaultHooks installs chaos hooks on the disk stores (no-op for
// in-memory backends): read may fail any KV read with a transient error,
// flush stalls log flushes. See internal/fault for the injector this is
// normally wired to — the indirection keeps state free of a fault import.
func (fb *FlatBackend) SetKVFaultHooks(read func(key []byte) error, flush func() time.Duration) {
	if fb.disk == nil {
		return
	}
	fb.disk.kv.SetFaultHooks(read, flush)
	fb.dns.kv.SetFaultHooks(read, flush)
}

// DiskBacked reports whether this backend persists to disk.
func (fb *FlatBackend) DiskBacked() bool { return fb.disk != nil }

// SizeOnDisk returns the combined size of the backend's logs in bytes
// (0 for in-memory backends).
func (fb *FlatBackend) SizeOnDisk() int64 {
	if fb.disk == nil {
		return 0
	}
	return fb.disk.kv.SizeOnDisk() + fb.dns.kv.SizeOnDisk()
}

// Shards returns the account-trie fan-out.
func (fb *FlatBackend) Shards() int { return fb.shards }

// recoverDisk restores a disk-backed backend to its last durable (height,
// root) after the kvdisk-level recovery of both logs. The two logs can
// legitimately disagree by one commit — persistCommit marks the nodes log
// before the flat log, so a crash in the window leaves nodes one height
// ahead (harmless: content-addressed orphans) — but the flat log must never
// be ahead of the nodes log, or its root would reference trie nodes that did
// not survive. When it is (a torn nodes tail), the flat log rolls back to
// the newest marker whose height the nodes log still covers.
func (fb *FlatBackend) recoverDisk(flatRec, nodesRec *kvdisk.Recovery) error {
	info := &RecoveryInfo{
		TornTail:          flatRec.TornTail || nodesRec.TornTail,
		RolledBackBytes:   flatRec.RolledBackBytes + nodesRec.RolledBackBytes,
		RolledBackRecords: flatRec.RolledBackRecords + nodesRec.RolledBackRecords,
	}
	markerHeight := func(meta []byte) (int64, types.Hash, error) {
		if len(meta) == 0 {
			return -1, types.Hash{}, nil
		}
		h, r, err := decodeCommitMeta(meta)
		return int64(h), r, err
	}
	nodesH, _, err := markerHeight(nodesRec.LastMeta)
	if err != nil {
		return fmt.Errorf("state: nodes log marker: %w", err)
	}
	flatH, flatRoot, err := markerHeight(flatRec.LastMeta)
	if err != nil {
		return fmt.Errorf("state: flat log marker: %w", err)
	}
	if flatH > nodesH {
		metas := fb.disk.kv.MarkerMetas()
		target := -1
		newH, newRoot := int64(-1), types.Hash{}
		for i := len(metas) - 1; i >= 0; i-- {
			h, r, err := decodeCommitMeta(metas[i])
			if err != nil {
				return fmt.Errorf("state: flat log marker %d: %w", i, err)
			}
			if int64(h) <= nodesH {
				target, newH, newRoot = i, int64(h), r
				break
			}
		}
		rb, err := fb.disk.kv.RollbackToMarker(target)
		if err != nil {
			return fmt.Errorf("state: reconcile flat log to height %d: %w", nodesH, err)
		}
		info.HeightRollback = int(flatH - newH)
		info.RolledBackBytes += rb.RolledBackBytes
		info.RolledBackRecords += rb.RolledBackRecords
		flatH, flatRoot = newH, newRoot
	}
	if flatH >= 0 {
		roots, err := fb.disk.loadRoots()
		if err != nil {
			return err
		}
		if int64(len(roots)) != flatH+1 {
			return fmt.Errorf("state: recovered root history has %d entries, marker height %d wants %d", len(roots), flatH, flatH+1)
		}
		if roots[flatH] != flatRoot {
			return fmt.Errorf("state: recovered root %s at height %d disagrees with commit marker %s", roots[flatH], flatH, flatRoot)
		}
		fb.roots = roots
		fb.root = flatRoot
		info.Height = uint64(flatH)
		info.Root = flatRoot
	} else {
		// No durable commit marker: a fresh store (or one rolled back to
		// empty). Fall back to the root history for marker-less legacy logs.
		roots, err := fb.disk.loadRoots()
		if err != nil {
			return err
		}
		if len(roots) > 0 {
			fb.roots = roots
			fb.root = roots[len(roots)-1]
			info.Height = uint64(len(roots) - 1)
		}
		info.Root = fb.root
	}
	fb.recInfo = info
	return nil
}

// RecoveryInfo reports what the opening recovery did: the durable height and
// root the backend resumed from, whether either log had a torn tail, and how
// much was rolled back. Nil for in-memory backends.
func (fb *FlatBackend) RecoveryInfo() *RecoveryInfo {
	if fb.recInfo == nil {
		return nil
	}
	cp := *fb.recInfo
	return &cp
}

// Height returns the number of committed blocks (committed-root history
// length minus the empty genesis root).
func (fb *FlatBackend) Height() uint64 {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	return uint64(len(fb.roots) - 1)
}

// VerifyRecovered recomputes the state root from the flat records alone — a
// fresh in-memory trie fold of every live account, slot, and code record —
// and checks it equals the recovered root. It proves the flat store and the
// authenticated commitment agree after a crash, at full-state-walk cost.
func (fb *FlatBackend) VerifyRecovered() error {
	fb.mu.RLock()
	want := fb.root
	fb.mu.RUnlock()
	if fb.disk == nil {
		return nil
	}
	ws := &WriteSet{
		Balances: make(map[types.Address]u256.Int),
		Nonces:   make(map[types.Address]uint64),
		Codes:    make(map[types.Address][]byte),
		Storage:  make(map[types.Address]map[types.Hash]u256.Int),
	}
	addrLen := len(types.Address{})
	hashLen := len(types.Hash{})
	err := fb.disk.kv.Range([]byte{'a'}, func(k, v []byte) error {
		if len(k) != 1+addrLen {
			return fmt.Errorf("state: malformed account key (%d bytes)", len(k))
		}
		var addr types.Address
		copy(addr[:], k[1:])
		acc, err := decodeAccount(v)
		if err != nil {
			return fmt.Errorf("state: corrupt account record %s: %w", addr, err)
		}
		ws.Balances[addr] = acc.Balance
		ws.Nonces[addr] = acc.Nonce
		if !acc.CodeHash.IsZero() && acc.CodeHash != EmptyCodeHash {
			code, err := fb.fs.getCode(acc.CodeHash)
			if err != nil {
				return err
			}
			if len(code) == 0 {
				return fmt.Errorf("state: account %s references missing code %s", addr, acc.CodeHash)
			}
			ws.Codes[addr] = code
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = fb.disk.kv.Range([]byte{'s'}, func(k, v []byte) error {
		if len(k) != 1+addrLen+hashLen {
			return fmt.Errorf("state: malformed slot key (%d bytes)", len(k))
		}
		var addr types.Address
		var slot types.Hash
		copy(addr[:], k[1:])
		copy(slot[:], k[1+addrLen:])
		m, ok := ws.Storage[addr]
		if !ok {
			m = make(map[types.Hash]u256.Int)
			ws.Storage[addr] = m
		}
		m[slot] = u256.FromBytes(v)
		return nil
	})
	if err != nil {
		return err
	}
	twin := NewFlatMem()
	defer twin.Close()
	got, err := twin.Commit(ws)
	if err != nil {
		return fmt.Errorf("state: recovery verification commit: %w", err)
	}
	if got != want {
		return fmt.Errorf("state: recovered root %s does not match flat records (recomputed %s)", want, got)
	}
	return nil
}

// SetNoSync toggles crash simulation on the underlying logs (no-op for
// in-memory backends): while set, appended records stay in the write buffers
// and commit markers never reach disk, so a Crash drops them. Torture-
// harness use only.
func (fb *FlatBackend) SetNoSync(v bool) {
	if fb.disk == nil {
		return
	}
	fb.disk.kv.SetNoSync(v)
	fb.dns.kv.SetNoSync(v)
}

// Crash simulates process death: the committer drains (anything already
// enqueued was submitted before the "crash"), then the logs close without
// flushing their buffers. Reopening the directory recovers to the last
// durable commit marker. Torture-harness use only.
func (fb *FlatBackend) Crash() error {
	fb.enqMu.Lock()
	if fb.closed {
		fb.enqMu.Unlock()
		return nil
	}
	fb.closed = true
	close(fb.jobs)
	fb.enqMu.Unlock()
	<-fb.done
	if fb.disk == nil {
		return nil
	}
	fb.disk.kv.CrashClose()
	return fb.dns.kv.CrashClose()
}

// DurabilityStats snapshots the backend's durability counters across both
// logs (zero value with Persistent=false for in-memory backends).
func (fb *FlatBackend) DurabilityStats() DurabilityStats {
	if fb.disk == nil {
		return DurabilityStats{}
	}
	fs := fb.disk.kv.Stats()
	ns := fb.dns.kv.Stats()
	d := DurabilityStats{
		Persistent:   true,
		Fsyncs:       fs.Fsyncs + ns.Fsyncs,
		SyncNs:       fs.SyncNs + ns.SyncNs,
		FlushedBytes: fs.FlushedBytes + ns.FlushedBytes,
		Commits:      fs.Commits,
		LogBytes:     fb.SizeOnDisk(),
	}
	if fb.recInfo != nil {
		d.RecoveredHeight = fb.recInfo.Height
		d.RolledBackBytes = fb.recInfo.RolledBackBytes
	}
	return d
}

// --- Reader (flat lookups; no trie nodes touched) ---

// Balance implements Reader.
func (fb *FlatBackend) Balance(addr types.Address) u256.Int {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	acc, _, err := fb.fs.getAccount(addr)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	return acc.Balance
}

// Nonce implements Reader.
func (fb *FlatBackend) Nonce(addr types.Address) uint64 {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	acc, _, err := fb.fs.getAccount(addr)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	return acc.Nonce
}

// Code implements Reader.
func (fb *FlatBackend) Code(addr types.Address) []byte {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	acc, ok, err := fb.fs.getAccount(addr)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	if !ok || acc.CodeHash.IsZero() || acc.CodeHash == EmptyCodeHash {
		return nil
	}
	code, err := fb.fs.getCode(acc.CodeHash)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	return code
}

// Storage implements Reader.
func (fb *FlatBackend) Storage(addr types.Address, key types.Hash) u256.Int {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	v, _, err := fb.fs.getSlot(addr, key)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	return v
}

// Exists implements Reader.
func (fb *FlatBackend) Exists(addr types.Address) bool {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	_, ok, err := fb.fs.getAccount(addr)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	return ok
}

// --- Backend ---

// Root returns the latest root whose trie commit has completed.
func (fb *FlatBackend) Root() types.Hash {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	return fb.root
}

// Roots implements Backend.
func (fb *FlatBackend) Roots() []types.Hash {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	out := make([]types.Hash, len(fb.roots))
	copy(out, fb.roots)
	return out
}

// TrieStore implements Backend.
func (fb *FlatBackend) TrieStore() trie.Store { return fb.nodes }

// CodeByHash implements Backend.
func (fb *FlatBackend) CodeByHash(h types.Hash) []byte {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	code, err := fb.fs.getCode(h)
	if err != nil {
		panic(fmt.Sprintf("state: flat read failed after retries: %v", err))
	}
	return code
}

// StateAt implements Backend: a trie-walking reader at a past committed root.
func (fb *FlatBackend) StateAt(root types.Hash) (Reader, error) {
	fb.mu.RLock()
	known := false
	for _, r := range fb.roots {
		if r == root {
			known = true
			break
		}
	}
	fb.mu.RUnlock()
	if !known {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRoot, root)
	}
	return NewHistorical(root, fb.nodes, fb.CodeByHash), nil
}

// LastCommitStats returns the timing split of the most recent completed
// commit.
func (fb *FlatBackend) LastCommitStats() CommitStats {
	fb.mu.RLock()
	defer fb.mu.RUnlock()
	return fb.lastStats
}

// Commit implements Backend: synchronous commit at default parallelism.
func (fb *FlatBackend) Commit(ws *WriteSet) (types.Hash, error) {
	return fb.CommitWith(ws, 0)
}

// CommitWith implements Backend: it enqueues the commit and waits for the
// trie build, so on return the root is final and visible.
func (fb *FlatBackend) CommitWith(ws *WriteSet, workers int) (types.Hash, error) {
	res := <-fb.CommitAsync(ws, workers)
	return res.Root, res.Err
}

// CommitAsync implements AsyncCommitter: the flat state applies before it
// returns (subsequent reads see the post-state); the trie build and the new
// root land later, delivered on the returned channel. Jobs complete strictly
// in submission order.
func (fb *FlatBackend) CommitAsync(ws *WriteSet, workers int) <-chan CommitResult {
	fb.enqMu.Lock()
	defer fb.enqMu.Unlock()
	res := make(chan CommitResult, 1)
	if fb.closed {
		res <- CommitResult{Err: fmt.Errorf("state: commit on closed flat backend")}
		return res
	}
	job, err := fb.applyFlat(ws, workers)
	if err != nil {
		res <- CommitResult{Err: err}
		return res
	}
	job.res = res
	fb.jobs <- job
	return res
}

// applyFlat applies the write set to the flat store and captures the trie
// job. Called with enqMu held; takes fb.mu for the store mutation.
func (fb *FlatBackend) applyFlat(ws *WriteSet, workers int) (*trieJob, error) {
	start := time.Now()
	fb.mu.Lock()
	defer fb.mu.Unlock()

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
	order := make([]types.Address, 0, len(touched))
	for a := range touched {
		order = append(order, a)
	}
	sort.Slice(order, func(i, j int) bool { return lessAddr(order[i], order[j]) })

	job := &trieJob{
		order:    order,
		accounts: make(map[types.Address]Account, len(order)),
		storage:  make(map[types.Address][]slotWrite, len(ws.Storage)),
		workers:  workers,
	}
	for _, addr := range order {
		acc, _, err := fb.fs.getAccount(addr)
		if err != nil {
			return nil, err
		}
		if v, ok := ws.Balances[addr]; ok {
			acc.Balance = v
		}
		if v, ok := ws.Nonces[addr]; ok {
			acc.Nonce = v
		}
		if code, ok := ws.Codes[addr]; ok {
			h := types.Keccak(code)
			if err := fb.fs.putCode(h, code); err != nil {
				return nil, err
			}
			acc.CodeHash = h
		}
		if err := fb.fs.putAccount(addr, acc); err != nil {
			return nil, err
		}
		job.accounts[addr] = acc

		slots, ok := ws.Storage[addr]
		if !ok {
			continue
		}
		keys := make([]types.Hash, 0, len(slots))
		for k := range slots {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return lessHash(keys[i], keys[j]) })
		writes := make([]slotWrite, 0, len(keys))
		for _, k := range keys {
			v := slots[k]
			if v.IsZero() {
				if err := fb.fs.deleteSlot(addr, k); err != nil {
					return nil, err
				}
			} else {
				if err := fb.fs.putSlot(addr, k, v); err != nil {
					return nil, err
				}
			}
			writes = append(writes, slotWrite{key: k, val: v})
		}
		job.storage[addr] = writes
	}
	job.flatNs = time.Since(start).Nanoseconds()
	return job, nil
}

// committerLoop drains trie jobs FIFO. One goroutine per backend; exits when
// Close closes the queue.
func (fb *FlatBackend) committerLoop() {
	defer close(fb.done)
	for job := range fb.jobs {
		job.res <- fb.runTrieJob(job)
	}
}

// runTrieJob builds the block's authenticated commitment: storage tries in
// parallel, then the account trie (sharded or plain), then publishes
// the root. Only the committer goroutine calls it, so the tries need no
// locking; flat-store access still goes through fb.mu.
func (fb *FlatBackend) runTrieJob(job *trieJob) CommitResult {
	stats := CommitStats{
		FlatNs:        job.flatNs,
		DirtyAccounts: len(job.order),
		Shards:        fb.shards,
	}
	workers := job.workers
	if workers <= 0 {
		workers = fb.shards
	}

	// Phase 1 (parallel): rebuild each dirty account's storage trie from its
	// last committed root. Tries are opened fresh per commit — nothing stays
	// resident between blocks — so memory tracks the dirty set, not the
	// state size.
	storageStart := time.Now()
	storageAddrs := make([]types.Address, 0, len(job.storage))
	prevRoots := make(map[types.Address]types.Hash, len(job.storage))
	fb.mu.RLock()
	for _, addr := range job.order {
		if _, ok := job.storage[addr]; !ok {
			continue
		}
		storageAddrs = append(storageAddrs, addr)
		acc, _, err := fb.fs.getAccount(addr)
		if err != nil {
			fb.mu.RUnlock()
			return CommitResult{Err: err}
		}
		prevRoots[addr] = acc.StorageRoot
		stats.DirtySlots += len(job.storage[addr])
	}
	fb.mu.RUnlock()

	sroots := make(map[types.Address]types.Hash, len(storageAddrs))
	var smu sync.Mutex
	commitOne := func(addr types.Address) error {
		st, err := trie.New(prevRoots[addr], fb.nodes)
		if err != nil {
			return fmt.Errorf("open storage trie: %w", err)
		}
		for _, w := range job.storage[addr] {
			hk := types.Keccak(w.key[:])
			if w.val.IsZero() {
				if err := st.Delete(hk[:]); err != nil {
					return fmt.Errorf("storage delete: %w", err)
				}
			} else {
				if err := st.Put(hk[:], w.val.Bytes()); err != nil {
					return fmt.Errorf("storage put: %w", err)
				}
			}
		}
		sroot, err := st.Commit()
		if err != nil {
			return fmt.Errorf("storage commit: %w", err)
		}
		smu.Lock()
		sroots[addr] = sroot
		smu.Unlock()
		return nil
	}
	if workers <= 1 || len(storageAddrs) < 2 {
		for _, addr := range storageAddrs {
			if err := commitOne(addr); err != nil {
				return CommitResult{Err: err}
			}
		}
	} else {
		w := workers
		if w > len(storageAddrs) {
			w = len(storageAddrs)
		}
		var (
			wg   sync.WaitGroup
			next atomic.Int64
			errs = make([]error, w)
		)
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(storageAddrs)) {
						return
					}
					if err := commitOne(storageAddrs[i]); err != nil {
						errs[slot] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return CommitResult{Err: err}
			}
		}
	}
	stats.StorageNs = time.Since(storageStart).Nanoseconds()

	// Phase 2: fold the captured account records (with fresh storage roots)
	// into the account trie in sorted address order, then hash. Accounts not
	// storage-dirty this block keep the root their record carries — FIFO job
	// order guarantees it is current as of the previous block.
	accountStart := time.Now()
	fb.mu.RLock()
	for _, addr := range job.order {
		if _, ok := sroots[addr]; ok {
			continue
		}
		acc, _, err := fb.fs.getAccount(addr)
		if err != nil {
			fb.mu.RUnlock()
			return CommitResult{Err: err}
		}
		sroots[addr] = acc.StorageRoot
	}
	fb.mu.RUnlock()
	for _, addr := range job.order {
		acc := job.accounts[addr]
		acc.StorageRoot = sroots[addr]
		job.accounts[addr] = acc
		hk := types.Keccak(addr[:])
		enc := encodeAccount(acc)
		var err error
		if fb.sharded != nil {
			err = fb.sharded.Put(hk[:], enc)
		} else {
			err = fb.plain.Put(hk[:], enc)
		}
		if err != nil {
			return CommitResult{Err: fmt.Errorf("account put: %w", err)}
		}
	}
	var root types.Hash
	var err error
	if fb.sharded != nil {
		root, err = fb.sharded.Commit(workers)
	} else {
		root, err = fb.plain.Commit()
	}
	if err != nil {
		return CommitResult{Err: fmt.Errorf("account commit: %w", err)}
	}
	if fb.dns != nil {
		if err := fb.dns.stickyErr(); err != nil {
			return CommitResult{Err: err}
		}
	}
	stats.AccountNs = time.Since(accountStart).Nanoseconds()

	// Publish: write back storage roots (the trie job owns the StorageRoot
	// field; flat applies own the rest, so the read-modify-write under fb.mu
	// composes with concurrent flat applies of later blocks), append the
	// root, flush the logs.
	fb.mu.Lock()
	for _, addr := range storageAddrs {
		acc, _, err := fb.fs.getAccount(addr)
		if err != nil {
			fb.mu.Unlock()
			return CommitResult{Err: err}
		}
		acc.StorageRoot = sroots[addr]
		if err := fb.fs.putAccount(addr, acc); err != nil {
			fb.mu.Unlock()
			return CommitResult{Err: err}
		}
	}
	fb.root = root
	fb.roots = append(fb.roots, root)
	if err := fb.fs.putRoots(fb.roots); err != nil {
		fb.mu.Unlock()
		return CommitResult{Err: err}
	}
	height := uint64(len(fb.roots) - 1)
	fb.mu.Unlock()
	syncStart := time.Now()
	if err := fb.persistCommit(height, root); err != nil {
		return CommitResult{Err: err}
	}
	stats.SyncNs = time.Since(syncStart).Nanoseconds()
	fb.mu.Lock()
	fb.lastStats = stats
	fb.mu.Unlock()
	return CommitResult{Root: root, Stats: stats}
}

// persistCommit makes the commit at height durable. Ordering is the crash-
// consistency invariant: the nodes log commits (marker + fsync) strictly
// before the flat log, so the flat log's marker — the recovery point — never
// names a root whose trie nodes did not survive. A crash between the two
// fsyncs leaves the nodes log one height ahead; reopen reconciles the flat
// log down to it, and the extra nodes are harmless content-addressed
// orphans. In-memory backends just flush (a no-op).
func (fb *FlatBackend) persistCommit(height uint64, root types.Hash) error {
	if fb.disk == nil {
		return fb.fs.flush()
	}
	meta := encodeCommitMeta(height, root)
	if err := fb.dns.kv.Commit(meta); err != nil {
		return err
	}
	return fb.disk.kv.Commit(meta)
}

// Close implements Backend: drains pending commits, stops the committer,
// and closes the underlying stores.
func (fb *FlatBackend) Close() error {
	fb.enqMu.Lock()
	if fb.closed {
		fb.enqMu.Unlock()
		return nil
	}
	fb.closed = true
	close(fb.jobs)
	fb.enqMu.Unlock()
	<-fb.done
	var firstErr error
	if err := fb.fs.close(); err != nil {
		firstErr = err
	}
	if fb.dns != nil {
		if err := fb.dns.kv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- in-memory flat store ---

type memFlatStore struct {
	accounts map[types.Address]Account
	storage  map[types.Address]map[types.Hash]u256.Int
	codes    map[types.Hash][]byte
}

func newMemFlatStore() *memFlatStore {
	return &memFlatStore{
		accounts: make(map[types.Address]Account),
		storage:  make(map[types.Address]map[types.Hash]u256.Int),
		codes:    make(map[types.Hash][]byte),
	}
}

func (m *memFlatStore) getAccount(addr types.Address) (Account, bool, error) {
	acc, ok := m.accounts[addr]
	return acc, ok, nil
}

func (m *memFlatStore) putAccount(addr types.Address, acc Account) error {
	m.accounts[addr] = acc
	return nil
}

func (m *memFlatStore) getSlot(addr types.Address, key types.Hash) (u256.Int, bool, error) {
	v, ok := m.storage[addr][key]
	return v, ok, nil
}

func (m *memFlatStore) putSlot(addr types.Address, key types.Hash, val u256.Int) error {
	s, ok := m.storage[addr]
	if !ok {
		s = make(map[types.Hash]u256.Int)
		m.storage[addr] = s
	}
	s[key] = val
	return nil
}

func (m *memFlatStore) deleteSlot(addr types.Address, key types.Hash) error {
	delete(m.storage[addr], key)
	return nil
}

func (m *memFlatStore) getCode(h types.Hash) ([]byte, error) {
	return m.codes[h], nil
}

func (m *memFlatStore) putCode(h types.Hash, code []byte) error {
	m.codes[h] = code
	return nil
}

func (m *memFlatStore) putRoots([]types.Hash) error { return nil }
func (m *memFlatStore) flush() error                { return nil }
func (m *memFlatStore) close() error                { return nil }
