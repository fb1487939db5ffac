package baseline

import (
	"sort"

	"dmvcc/internal/evm"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// setRecorder is a plain read/write-set recording accessor used by the DAG
// oracle and the OCC validator. Unlike the SAG analyzer it knows nothing
// about commutativity: every balance credit is an ordinary
// read-modify-write, matching how the compared systems treat state.
type setRecorder struct {
	overlay  *state.Overlay
	reads    map[sag.ItemID]struct{}
	writes   map[sag.ItemID]struct{}
	readVals map[sag.ItemID]u256.Int
}

var _ evm.State = (*setRecorder)(nil)

func newSetRecorder(base state.Reader) *setRecorder {
	return &setRecorder{
		overlay:  state.NewOverlay(base),
		reads:    make(map[sag.ItemID]struct{}),
		writes:   make(map[sag.ItemID]struct{}),
		readVals: make(map[sag.ItemID]u256.Int),
	}
}

func (r *setRecorder) read(id sag.ItemID) {
	if _, wrote := r.writes[id]; !wrote {
		r.reads[id] = struct{}{}
	}
}

// readVal records the first value a cross-transaction read observed (reads
// after the transaction's own write are its own data, not a dependency).
// The divergence auditor diffs these against the parallel schedule's
// resolved read values.
func (r *setRecorder) readVal(id sag.ItemID, v u256.Int) {
	if _, wrote := r.writes[id]; wrote {
		return
	}
	if _, ok := r.readVals[id]; !ok {
		r.readVals[id] = v
	}
}

// GetState implements evm.State.
func (r *setRecorder) GetState(addr types.Address, key types.Hash) (u256.Int, error) {
	id := sag.StorageItem(addr, key)
	r.read(id)
	v := r.overlay.Storage(addr, key)
	r.readVal(id, v)
	return v, nil
}

// SetState implements evm.State.
func (r *setRecorder) SetState(addr types.Address, key types.Hash, v u256.Int) error {
	r.writes[sag.StorageItem(addr, key)] = struct{}{}
	r.overlay.SetStorage(addr, key, v)
	return nil
}

// GetBalance implements evm.State.
func (r *setRecorder) GetBalance(addr types.Address) (u256.Int, error) {
	id := sag.BalanceItem(addr)
	r.read(id)
	v := r.overlay.Balance(addr)
	r.readVal(id, v)
	return v, nil
}

// SetBalance implements evm.State.
func (r *setRecorder) SetBalance(addr types.Address, v u256.Int) error {
	r.writes[sag.BalanceItem(addr)] = struct{}{}
	r.overlay.SetBalance(addr, v)
	return nil
}

// GetNonce implements evm.State.
func (r *setRecorder) GetNonce(addr types.Address) (uint64, error) {
	id := sag.NonceItem(addr)
	r.read(id)
	v := r.overlay.Nonce(addr)
	r.readVal(id, u256.NewUint64(v))
	return v, nil
}

// SetNonce implements evm.State.
func (r *setRecorder) SetNonce(addr types.Address, v uint64) error {
	r.writes[sag.NonceItem(addr)] = struct{}{}
	r.overlay.SetNonce(addr, v)
	return nil
}

// GetCode implements evm.State.
func (r *setRecorder) GetCode(addr types.Address) ([]byte, error) {
	r.read(sag.CodeItem(addr))
	return r.overlay.Code(addr), nil
}

// SetCode implements evm.State.
func (r *setRecorder) SetCode(addr types.Address, code []byte) error {
	r.writes[sag.CodeItem(addr)] = struct{}{}
	r.overlay.SetCode(addr, code)
	return nil
}

// Snapshot implements evm.State.
func (r *setRecorder) Snapshot() int { return r.overlay.Snapshot() }

// RevertToSnapshot implements evm.State. Recorded sets intentionally keep
// accesses from reverted frames: they were real dependencies.
func (r *setRecorder) RevertToSnapshot(rev int) { r.overlay.RevertToSnapshot(rev) }

// TxSets is the oracle access information of one executed transaction.
type TxSets struct {
	Reads   map[sag.ItemID]struct{}
	Writes  map[sag.ItemID]struct{}
	Changes *state.WriteSet
	Receipt *types.Receipt
	// ReadVals is the first value each cross-transaction read observed
	// (storage/balance/nonce items; code reads are tracked by set only).
	// The divergence auditor compares them against the parallel schedule.
	ReadVals map[sag.ItemID]u256.Int
}

// OracleSets executes the block serially while recording the exact
// read/write set of every transaction against its true pre-state. The DAG
// baseline consumes these, granting it the paper's assumption of accurate
// pre-declared sets (FISCO-BCOS-style).
func OracleSets(snap state.Reader, block evm.BlockContext, txs []*types.Transaction) ([]*TxSets, error) {
	acc := state.NewOverlay(snap)
	out := make([]*TxSets, len(txs))
	for i, tx := range txs {
		rec := newSetRecorder(acc)
		receipt, err := evm.ApplyTransaction(rec, block, tx, tx.Hash(), i, nil)
		if err != nil {
			return nil, err
		}
		changes := rec.overlay.Changes()
		acc.Apply(changes)
		out[i] = &TxSets{
			Reads:    rec.reads,
			Writes:   rec.writes,
			Changes:  changes,
			Receipt:  receipt,
			ReadVals: rec.readVals,
		}
	}
	return out, nil
}

// Coarsen collapses storage items to whole-contract granularity: the
// pre-declared read/write sets available to DAG-style schedulers come from
// static analysis or user declarations, which (as the paper's introduction
// argues) cannot resolve runtime-dependent slot keys and must conservatively
// claim the whole contract. Balance/nonce accesses stay per-account (they
// are statically evident from the transaction itself).
func Coarsen(sets []*TxSets) []*TxSets {
	out := make([]*TxSets, len(sets))
	coarse := func(in map[sag.ItemID]struct{}) map[sag.ItemID]struct{} {
		m := make(map[sag.ItemID]struct{}, len(in))
		for id := range in {
			if id.Kind == sag.KindStorage {
				id.Slot = types.Hash{}
			}
			m[id] = struct{}{}
		}
		return m
	}
	for i, s := range sets {
		out[i] = &TxSets{
			Reads:   coarse(s.Reads),
			Writes:  coarse(s.Writes),
			Changes: s.Changes,
			Receipt: s.Receipt,
		}
	}
	return out
}

// BuildDeps derives the DAG scheduler's dependency lists: a transaction
// waits for every conflicting predecessor (read-write, write-read, or
// write-write). Edges are reduced per item to the standard chain form —
// writer -> next writer, writer -> intervening readers, readers -> next
// writer — which is transitively equivalent to the full conflict relation
// and keeps construction linear in the number of accesses instead of
// quadratic in block size.
func BuildDeps(sets []*TxSets) [][]int {
	type access struct {
		tx    int
		write bool
	}
	perItem := make(map[sag.ItemID][]access)
	for i, s := range sets {
		for id := range s.Writes {
			perItem[id] = append(perItem[id], access{tx: i, write: true})
		}
		for id := range s.Reads {
			if _, alsoWrites := s.Writes[id]; !alsoWrites {
				perItem[id] = append(perItem[id], access{tx: i})
			}
		}
	}
	predSets := make([]map[int]struct{}, len(sets))
	addPred := func(tx, pred int) {
		if pred < 0 || pred == tx {
			return
		}
		if predSets[tx] == nil {
			predSets[tx] = make(map[int]struct{})
		}
		predSets[tx][pred] = struct{}{}
	}
	for _, accs := range perItem {
		sort.Slice(accs, func(a, b int) bool { return accs[a].tx < accs[b].tx })
		lastWriter := -1
		var readersSince []int
		for _, a := range accs {
			if a.write {
				addPred(a.tx, lastWriter)
				for _, r := range readersSince {
					addPred(a.tx, r)
				}
				readersSince = readersSince[:0]
				lastWriter = a.tx
			} else {
				addPred(a.tx, lastWriter)
				readersSince = append(readersSince, a.tx)
			}
		}
	}
	preds := make([][]int, len(sets))
	for i, ps := range predSets {
		if len(ps) == 0 {
			continue
		}
		out := make([]int, 0, len(ps))
		for p := range ps {
			out = append(out, p)
		}
		sort.Ints(out)
		preds[i] = out
	}
	return preds
}
