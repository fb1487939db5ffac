package baseline

import (
	"fmt"
	"sync"

	"dmvcc/internal/evm"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
)

// occResult is one transaction's latest speculative execution.
type occResult struct {
	sets    *TxSets
	version int // writeLog length when the execution started
}

// ExecuteOCC runs the optimistic concurrency control baseline (§II-B,
// §V-B): transactions execute speculatively in parallel against the
// committed snapshot-plus-prefix without observing each other's writes,
// then validate in block order; a transaction whose read set intersects
// writes committed after its execution started is aborted and re-executed,
// until the whole block commits. Aborts counts re-executions.
func ExecuteOCC(snap state.Reader, block evm.BlockContext, txs []*types.Transaction, threads int) (*Result, error) {
	n := len(txs)
	if threads < 1 {
		threads = 1
	}
	committedState := state.NewOverlay(snap)
	// Hashed once here: a transaction may re-execute in several rounds.
	hashes := make([]types.Hash, n)
	for j, tx := range txs {
		hashes[j] = tx.Hash()
	}
	results := make([]*occResult, n)
	committed := make([]bool, n)
	receipts := make([]*types.Receipt, n)
	// lastWrite[id] is the commit version that last wrote id; version is
	// the number of commits so far. Validation of a result executed at
	// version v only needs lastWrite[id] >= v checks over its read set.
	lastWrite := make(map[sag.ItemID]int)
	version := 0
	var aborts int64
	var batches [][]int

	committedCount := 0
	for committedCount < n {
		// Execute phase: run every uncommitted transaction lacking a valid
		// speculative result, in parallel against the frozen prefix state.
		var batch []int
		for j := 0; j < n; j++ {
			if !committed[j] && results[j] == nil {
				batch = append(batch, j)
			}
		}
		if len(batch) > 0 {
			batches = append(batches, batch)
		}
		execVersion := version
		var wg sync.WaitGroup
		sem := make(chan struct{}, threads)
		errs := make([]error, len(batch))
		for bi, j := range batch {
			bi, j := bi, j
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rec := newSetRecorder(committedState)
				receipt, err := evm.ApplyTransaction(rec, block, txs[j], hashes[j], j, nil)
				if err != nil {
					errs[bi] = err
					return
				}
				results[j] = &occResult{
					sets: &TxSets{
						Reads:   rec.reads,
						Writes:  rec.writes,
						Changes: rec.overlay.Changes(),
						Receipt: receipt,
					},
					version: execVersion,
				}
			}()
		}
		wg.Wait()
		for bi, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("baseline: occ tx %d: %w", batch[bi], err)
			}
		}

		// Validate-and-commit phase, in block order. Deterministic
		// serializability requires committing a contiguous prefix; beyond
		// the first failure the pass keeps scanning to invalidate every
		// stale speculative result at once, so the next round re-executes
		// them together instead of one per round.
		canCommit := true
		for j := 0; j < n; j++ {
			if committed[j] {
				continue
			}
			res := results[j]
			if res == nil {
				canCommit = false
				continue
			}
			valid := true
			for id := range res.sets.Reads {
				if w, ok := lastWrite[id]; ok && w >= res.version {
					valid = false
					break
				}
			}
			if !valid {
				results[j] = nil
				aborts++
				canCommit = false
				continue
			}
			if !canCommit {
				continue // valid so far; re-validated after predecessors commit
			}
			committedState.Apply(res.sets.Changes)
			for id := range res.sets.Writes {
				lastWrite[id] = version
			}
			version++
			receipts[j] = res.sets.Receipt
			committed[j] = true
			committedCount++
		}
	}
	return &Result{
		Receipts: receipts,
		WriteSet: committedState.Changes(),
		Aborts:   aborts,
		Batches:  batches,
	}, nil
}
