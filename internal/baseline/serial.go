// Package baseline implements the executors DMVCC is evaluated against:
// the serial reference executor (the paper's speedup baseline), a DAG-based
// scheduler that parallelizes non-conflicting transactions but treats
// write-write pairs as conflicts and synchronizes at transaction level, and
// an OCC executor using execute/validate/re-execute rounds (§V-B).
package baseline

import (
	"fmt"

	"dmvcc/internal/evm"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
)

// Result is the outcome of a baseline block execution.
type Result struct {
	Receipts []*types.Receipt
	WriteSet *state.WriteSet
	// Aborts counts re-executions (OCC only).
	Aborts int64
	// Batches lists, per OCC round, the transactions (re-)executed in that
	// round (OCC only) — input for the scheduling simulator.
	Batches [][]int
}

// ExecuteSerial executes the block's transactions one after another — the
// reference semantics every parallel schedule must reproduce.
func ExecuteSerial(snap state.Reader, block evm.BlockContext, txs []*types.Transaction) (*Result, error) {
	overlay := state.NewOverlay(snap)
	adapter := state.NewVMAdapter(overlay)
	receipts := make([]*types.Receipt, len(txs))
	for i, tx := range txs {
		r, err := evm.ApplyTransaction(adapter, block, tx, tx.Hash(), i, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline: serial tx %d: %w", i, err)
		}
		receipts[i] = r
	}
	return &Result{Receipts: receipts, WriteSet: overlay.Changes()}, nil
}
