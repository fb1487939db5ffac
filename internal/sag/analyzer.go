package sag

import (
	"fmt"

	"dmvcc/internal/evm"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// Analyzer refines P-SAGs into C-SAGs by executing each transaction's
// forward slice against the latest committed snapshot (§IV-A): storage keys
// that depend on runtime values are resolved with actual snapshot data, and
// loops are effectively unrolled by the concrete run. If the snapshot
// values a C-SAG was derived from are overwritten by earlier transactions
// in the block, the runtime abort mechanism restores correctness.
type Analyzer struct {
	reg *Registry
}

// NewAnalyzer returns an analyzer over the contract registry.
func NewAnalyzer(reg *Registry) *Analyzer {
	return &Analyzer{reg: reg}
}

// Registry returns the contract registry backing the analyzer.
func (a *Analyzer) Registry() *Registry { return a.reg }

// Analyze produces the C-SAG of tx at block position idx against snapshot.
func (a *Analyzer) Analyze(tx *types.Transaction, idx int, snapshot state.Reader, block evm.BlockContext) (*CSAG, error) {
	rec := newRecorder(a.reg, snapshot)
	// The C-SAG keeps only the receipt's status and gas: no tx hash needed.
	receipt, err := evm.ApplyTransaction(rec, block, tx, types.Hash{}, idx, rec.hook)
	if err != nil {
		return nil, fmt.Errorf("sag: analysis pre-run: %w", err)
	}
	csag := rec.finish(idx)
	csag.PredictedStatus = receipt.Status
	csag.PredictedGasUsed = receipt.GasUsed
	return csag, nil
}

// AnalyzeBlock analyzes every transaction of a block against the same
// snapshot (the paper performs this offline, in the transaction pool).
func (a *Analyzer) AnalyzeBlock(txs []*types.Transaction, snapshot state.Reader, block evm.BlockContext) ([]*CSAG, error) {
	out := make([]*CSAG, len(txs))
	for i, tx := range txs {
		c, err := a.Analyze(tx, i, snapshot, block)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// touchKind tracks how this transaction has touched an item so far; it
// decides whether a blind increment may run in delta mode.
type touchKind uint8

const (
	touchNone touchKind = iota
	touchRead
	touchDelta
	touchWritten
)

// recorder is the analysis-time state accessor: it executes against an
// overlay on the snapshot while recording the access classification that
// becomes the C-SAG. Its delta/degrade protocol is mirrored exactly by the
// DMVCC runtime accessor so predictions line up with runtime behaviour.
type recorder struct {
	reg     *Registry
	snap    state.Reader
	overlay *state.Overlay

	reads       map[ItemID]struct{}
	writeEvents map[ItemID]int
	touch       map[ItemID]touchKind
	pending     map[ItemID]u256.Int // accumulated delta per delta-mode item

	journal []func()
	snaps   []recSnap

	// comm-site arming, set by the step hook for the next Get/SetState.
	armDelta bool
	armStore bool
	// deltaPending is the item whose blind-increment store is expected.
	deltaPending *ItemID
}

type recSnap struct {
	overlayRev int
	journalLen int
}

var _ evm.State = (*recorder)(nil)
var _ evm.BalanceAdder = (*recorder)(nil)
var _ evm.HookTabler = (*recorder)(nil)

func newRecorder(reg *Registry, snap state.Reader) *recorder {
	return &recorder{
		reg:         reg,
		snap:        snap,
		overlay:     state.NewOverlay(snap),
		reads:       make(map[ItemID]struct{}),
		writeEvents: make(map[ItemID]int),
		touch:       make(map[ItemID]touchKind),
		pending:     make(map[ItemID]u256.Int),
	}
}

// HookTable implements evm.HookTabler: the registered contract's table, so
// the hook runs only at hook points (nil for unknown code: every
// instruction, none of them a commutative site).
func (r *recorder) HookTable(addr types.Address) []uint8 {
	if info := r.reg.Lookup(addr); info != nil {
		return info.HookAt
	}
	return nil
}

// hook arms delta mode when execution reaches a commutative site.
func (r *recorder) hook(addr types.Address, depth int, pc uint64, op evm.Opcode, gas uint64, flags uint8) error {
	if flags&evm.HookCommLoad != 0 {
		r.armDelta = true
	}
	if flags&evm.HookCommStore != 0 {
		r.armStore = true
	}
	return nil
}

func (r *recorder) setTouch(id ItemID, t touchKind) {
	prev, had := r.touch[id]
	r.journal = append(r.journal, func() {
		if had {
			r.touch[id] = prev
		} else {
			delete(r.touch, id)
		}
	})
	r.touch[id] = t
}

func (r *recorder) addPending(id ItemID, v *u256.Int) {
	prev, had := r.pending[id]
	r.journal = append(r.journal, func() {
		if had {
			r.pending[id] = prev
		} else {
			delete(r.pending, id)
		}
	})
	var next u256.Int
	next.Add(&prev, v)
	r.pending[id] = next
}

func (r *recorder) dropPending(id ItemID) {
	prev, had := r.pending[id]
	if !had {
		return
	}
	r.journal = append(r.journal, func() { r.pending[id] = prev })
	delete(r.pending, id)
}

// recordRead notes a cross-transaction read dependency on id.
func (r *recorder) recordRead(id ItemID) {
	r.reads[id] = struct{}{}
	if r.touch[id] == touchNone {
		r.setTouch(id, touchRead)
	}
}

// snapValue reads an item's value from the snapshot (never the overlay).
func (r *recorder) snapValue(id ItemID) u256.Int {
	switch id.Kind {
	case KindStorage:
		return r.snap.Storage(id.Addr, id.Slot)
	case KindBalance:
		return r.snap.Balance(id.Addr)
	case KindNonce:
		return u256.NewUint64(r.snap.Nonce(id.Addr))
	default:
		return u256.Int{}
	}
}

// degradeRead converts a delta-mode item back to a normal read-modify-write
// because the transaction went on to observe its value: the true base is
// resolved, the accumulated delta applied, and the item reclassified.
func (r *recorder) degradeRead(id ItemID) u256.Int {
	base := r.snapValue(id)
	delta := r.pending[id]
	var val u256.Int
	val.Add(&base, &delta)
	r.dropPending(id)
	r.setTouch(id, touchWritten)
	r.reads[id] = struct{}{}
	r.storeOverlay(id, val)
	return val
}

// storeOverlay writes an absolute value into the overlay for id.
func (r *recorder) storeOverlay(id ItemID, v u256.Int) {
	switch id.Kind {
	case KindStorage:
		r.overlay.SetStorage(id.Addr, id.Slot, v)
	case KindBalance:
		r.overlay.SetBalance(id.Addr, v)
	case KindNonce:
		r.overlay.SetNonce(id.Addr, v.Uint64())
	}
}

// GetState implements evm.State.
func (r *recorder) GetState(addr types.Address, key types.Hash) (u256.Int, error) {
	id := StorageItem(addr, key)
	if r.armDelta {
		r.armDelta = false
		if t := r.touch[id]; t == touchNone || t == touchDelta {
			// Blind-increment base: any base works, the store records the
			// difference. Zero keeps pre-run and runtime identical.
			if t == touchNone {
				r.setTouch(id, touchDelta)
			}
			r.deltaPending = &id
			return u256.Int{}, nil
		}
	}
	if r.touch[id] == touchDelta {
		return r.degradeRead(id), nil
	}
	if r.touch[id] == touchNone {
		r.recordRead(id)
	}
	return r.overlay.Storage(addr, key), nil
}

// SetState implements evm.State.
func (r *recorder) SetState(addr types.Address, key types.Hash, v u256.Int) error {
	id := StorageItem(addr, key)
	if r.armStore {
		r.armStore = false
		if r.deltaPending != nil && *r.deltaPending == id {
			r.deltaPending = nil
			// Base was zero, so the stored value is the delta contribution.
			r.addPending(id, &v)
			r.writeEvents[id]++
			return nil
		}
	}
	if r.touch[id] == touchDelta {
		// Absolute write supersedes accumulated deltas.
		r.dropPending(id)
	}
	r.setTouch(id, touchWritten)
	r.overlay.SetStorage(addr, key, v)
	r.writeEvents[id]++
	return nil
}

// GetBalance implements evm.State.
func (r *recorder) GetBalance(addr types.Address) (u256.Int, error) {
	id := BalanceItem(addr)
	if r.touch[id] == touchDelta {
		return r.degradeRead(id), nil
	}
	if r.touch[id] == touchNone {
		r.recordRead(id)
	}
	return r.overlay.Balance(addr), nil
}

// SetBalance implements evm.State.
func (r *recorder) SetBalance(addr types.Address, v u256.Int) error {
	id := BalanceItem(addr)
	if r.touch[id] == touchDelta {
		r.dropPending(id)
	}
	r.setTouch(id, touchWritten)
	r.overlay.SetBalance(addr, v)
	r.writeEvents[id]++
	return nil
}

// AddBalance implements evm.BalanceAdder: a blind credit is a delta unless
// the transaction already observed or wrote the balance.
func (r *recorder) AddBalance(addr types.Address, delta u256.Int) error {
	id := BalanceItem(addr)
	if t := r.touch[id]; t == touchNone || t == touchDelta {
		if t == touchNone {
			r.setTouch(id, touchDelta)
		}
		r.addPending(id, &delta)
		r.writeEvents[id]++
		return nil
	}
	cur := r.overlay.Balance(addr)
	var next u256.Int
	next.Add(&cur, &delta)
	r.overlay.SetBalance(addr, next)
	r.writeEvents[id]++
	return nil
}

// GetNonce implements evm.State.
func (r *recorder) GetNonce(addr types.Address) (uint64, error) {
	id := NonceItem(addr)
	if r.touch[id] == touchNone {
		r.recordRead(id)
	}
	return r.overlay.Nonce(addr), nil
}

// SetNonce implements evm.State.
func (r *recorder) SetNonce(addr types.Address, v uint64) error {
	id := NonceItem(addr)
	r.setTouch(id, touchWritten)
	r.overlay.SetNonce(addr, v)
	r.writeEvents[id]++
	return nil
}

// GetCode implements evm.State.
func (r *recorder) GetCode(addr types.Address) ([]byte, error) {
	id := CodeItem(addr)
	if r.touch[id] == touchNone {
		r.recordRead(id)
	}
	return r.overlay.Code(addr), nil
}

// SetCode implements evm.State.
func (r *recorder) SetCode(addr types.Address, code []byte) error {
	id := CodeItem(addr)
	r.setTouch(id, touchWritten)
	r.overlay.SetCode(addr, code)
	r.writeEvents[id]++
	return nil
}

// Snapshot implements evm.State.
func (r *recorder) Snapshot() int {
	r.snaps = append(r.snaps, recSnap{
		overlayRev: r.overlay.Snapshot(),
		journalLen: len(r.journal),
	})
	return len(r.snaps) - 1
}

// RevertToSnapshot implements evm.State.
func (r *recorder) RevertToSnapshot(rev int) {
	s := r.snaps[rev]
	r.overlay.RevertToSnapshot(s.overlayRev)
	for i := len(r.journal) - 1; i >= s.journalLen; i-- {
		r.journal[i]()
	}
	r.journal = r.journal[:s.journalLen]
	r.snaps = r.snaps[:rev]
}

// finish assembles the C-SAG from the recorded classification.
func (r *recorder) finish(idx int) *CSAG {
	c := NewCSAG(idx)
	c.Reads = r.reads
	for id, t := range r.touch {
		switch t {
		case touchWritten:
			c.Writes[id] = r.writeEvents[id]
		case touchDelta:
			c.Deltas[id] = r.writeEvents[id]
		}
	}
	return c
}
