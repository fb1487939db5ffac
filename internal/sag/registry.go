package sag

import (
	"sync"

	"dmvcc/internal/cfg"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/types"
)

// ContractInfo caches the static analyses of one contract's bytecode: its
// CFG with release-point facts, and the compiler-reported commutative
// increment sites. It corresponds to the P-SAG the paper constructs once
// per contract.
type ContractInfo struct {
	CodeHash types.Hash
	Code     []byte
	Analysis *cfg.Analysis

	// CommLoads maps the pc of a blind-increment SLOAD to the pc of its
	// matching SSTORE; CommStores is the reverse index.
	CommLoads  map[uint64]uint64
	CommStores map[uint64]bool

	// ReleasedAt and GasBoundAt are the per-pc release-point facts
	// (indexed by pc), precomputed so the interpreter hook is O(1).
	ReleasedAt []bool
	GasBoundAt []uint64

	// HookAt is the hook-point table the interpreter gates the step hook
	// with (evm.HookTabler): one evm.Hook* flag byte per pc, nonzero only
	// at the instructions a scheduler or the analyzer must observe.
	HookAt []uint8
}

// Released reports whether pc is a release point of this contract with the
// given remaining gas (release-point membership and the Algorithm 2 line 1
// gas check combined).
func (ci *ContractInfo) Released(pc uint64, gasLeft uint64) bool {
	if pc >= uint64(len(ci.ReleasedAt)) {
		return false
	}
	return ci.ReleasedAt[pc] && gasLeft >= ci.GasBoundAt[pc]
}

// Registry caches per-contract static analysis, shared by the analyzer and
// every scheduler. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byAddr map[types.Address]*ContractInfo
	byHash map[types.Hash]*ContractInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byAddr: make(map[types.Address]*ContractInfo),
		byHash: make(map[types.Hash]*ContractInfo),
	}
}

// Register records a deployed contract's code and commutative sites and
// runs (or reuses) the static analysis. Safe to call repeatedly.
func (r *Registry) Register(addr types.Address, code []byte, comm []minisol.CommSite) *ContractInfo {
	h := types.Keccak(code)
	r.mu.Lock()
	defer r.mu.Unlock()
	if info, ok := r.byHash[h]; ok {
		r.byAddr[addr] = info
		return info
	}
	info := &ContractInfo{
		CodeHash:   h,
		Code:       code,
		Analysis:   cfg.Analyze(code),
		CommLoads:  make(map[uint64]uint64, len(comm)),
		CommStores: make(map[uint64]bool, len(comm)),
	}
	for _, site := range comm {
		info.CommLoads[site.LoadPC] = site.StorePC
		info.CommStores[site.StorePC] = true
	}
	info.ReleasedAt = make([]bool, len(code))
	info.GasBoundAt = make([]uint64, len(code))
	for pc := range code {
		info.ReleasedAt[pc] = info.Analysis.Released(uint64(pc))
		info.GasBoundAt[pc] = info.Analysis.GasBound(uint64(pc))
	}
	info.HookAt = hookTable(info)
	r.byHash[h] = info
	r.byAddr[addr] = info
	return info
}

// hookTable builds info's hook-point table. Flags are set only at
// instruction boundaries — an opcode-valued byte inside PUSH data is never
// executed — and cover every state access, every commutative site, every
// release point (the Algorithm 2 gas check is not monotone in pc, so none
// may be skipped) and pc 0, where a frame's starting gas is observed.
func hookTable(info *ContractInfo) []uint8 {
	code := info.Code
	t := make([]uint8, len(code))
	for pc := 0; pc < len(code); pc++ {
		op := evm.Opcode(code[pc])
		var f uint8
		if op.TouchesState() {
			f = evm.HookState
		}
		if _, ok := info.CommLoads[uint64(pc)]; ok && op == evm.SLOAD {
			f |= evm.HookCommLoad
		}
		if info.CommStores[uint64(pc)] && op == evm.SSTORE {
			f |= evm.HookCommStore
		}
		if info.ReleasedAt[pc] {
			f |= evm.HookRelease
		}
		t[pc] = f
		pc += op.PushBytes()
	}
	if len(t) > 0 {
		t[0] |= evm.HookState
	}
	return t
}

// RegisterCompiled registers a compiled minisol contract at addr.
func (r *Registry) RegisterCompiled(addr types.Address, c *minisol.Compiled) *ContractInfo {
	return r.Register(addr, c.Code, c.Commutative)
}

// Lookup returns the analysis for the contract at addr, or nil if the
// address is unknown (e.g. a contract deployed mid-block or received from a
// peer without a cached SAG — the scheduler then falls back to fully
// dynamic handling, as the paper's workflow allows).
func (r *Registry) Lookup(addr types.Address) *ContractInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byAddr[addr]
}
