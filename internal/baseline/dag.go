package baseline

import (
	"fmt"
	"sync"

	"dmvcc/internal/evm"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// sharedState is the committed view DAG workers read through and apply
// write sets into. The dependency graph guarantees item-level disjointness
// between concurrent transactions; the lock only protects map internals.
type sharedState struct {
	mu      sync.RWMutex
	overlay *state.Overlay
}

var _ state.Reader = (*sharedState)(nil)

// Balance implements state.Reader.
func (s *sharedState) Balance(a types.Address) u256.Int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlay.Balance(a)
}

// Nonce implements state.Reader.
func (s *sharedState) Nonce(a types.Address) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlay.Nonce(a)
}

// Code implements state.Reader.
func (s *sharedState) Code(a types.Address) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlay.Code(a)
}

// Storage implements state.Reader.
func (s *sharedState) Storage(a types.Address, k types.Hash) u256.Int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlay.Storage(a, k)
}

// Exists implements state.Reader.
func (s *sharedState) Exists(a types.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlay.Exists(a)
}

func (s *sharedState) apply(ws *state.WriteSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.overlay.Apply(ws)
}

func (s *sharedState) changes() *state.WriteSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overlay.Changes()
}

// ExecuteDAG runs the DAG-based scheduler the paper compares against
// (ParBlockchain-style, §V-B): a dependency edge i -> j (i < j) exists for
// every read-write, write-read, or write-write overlap — write-write pairs
// conflict because there is no write versioning — and a transaction only
// executes once all its predecessors finished, synchronizing at transaction
// granularity (no early visibility, no commutative merging). sets are the
// pre-declared access sets; use OracleSets to grant the baseline the
// paper's accurate-analysis assumption.
func ExecuteDAG(snap state.Reader, block evm.BlockContext, txs []*types.Transaction, sets []*TxSets, threads int) (*Result, error) {
	n := len(txs)
	if len(sets) != n {
		return nil, fmt.Errorf("baseline: %d txs but %d access sets", n, len(sets))
	}
	if threads < 1 {
		threads = 1
	}

	preds := BuildDeps(sets)
	succs := make([][]int, n)
	indeg := make([]int, n)
	for j, ps := range preds {
		indeg[j] = len(ps)
		for _, i := range ps {
			succs[i] = append(succs[i], j)
		}
	}

	shared := &sharedState{overlay: state.NewOverlay(snap)}
	receipts := make([]*types.Receipt, n)
	errs := make([]error, n)

	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, threads)

	var launch func(j int)
	runOne := func(j int) {
		defer wg.Done()
		sem <- struct{}{}

		local := state.NewOverlay(shared)
		adapter := state.NewVMAdapter(local)
		receipt, err := evm.ApplyTransaction(adapter, block, txs[j], txs[j].Hash(), j, nil)
		if err != nil {
			errs[j] = err
		} else {
			receipts[j] = receipt
			shared.apply(local.Changes())
		}
		<-sem

		mu.Lock()
		var newly []int
		for _, s := range succs[j] {
			indeg[s]--
			if indeg[s] == 0 {
				newly = append(newly, s)
			}
		}
		mu.Unlock()
		for _, s := range newly {
			launch(s)
		}
	}
	launch = func(j int) {
		wg.Add(1)
		go runOne(j)
	}
	mu.Lock()
	var initial []int
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			initial = append(initial, j)
		}
	}
	mu.Unlock()
	for _, j := range initial {
		launch(j)
	}
	wg.Wait()

	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("baseline: dag tx %d: %w", j, err)
		}
	}
	return &Result{Receipts: receipts, WriteSet: shared.changes()}, nil
}
