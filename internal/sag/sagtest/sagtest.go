// Package sagtest holds test helpers for code built on the sag registry.
package sagtest

import (
	"dmvcc/internal/evm"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
)

// DenseHooks replaces the hook-point table of the contract registered at
// each addr with the dense reference: every instruction boundary is a hook
// point (evm.HookState added), and the real table's flags are kept. Under
// dense tables the interpreter calls the step hook before every executed
// instruction, so comparing a run against one with the real tables proves
// that sparse hooking changes nothing, and the dense hook count is the
// executed-instruction count. Call it before any execution starts.
func DenseHooks(reg *sag.Registry, addrs ...types.Address) {
	for _, addr := range addrs {
		info := reg.Lookup(addr)
		if info == nil {
			continue
		}
		dense := make([]uint8, len(info.Code))
		for pc := 0; pc < len(info.Code); pc++ {
			dense[pc] = info.HookAt[pc] | evm.HookState
			pc += evm.Opcode(info.Code[pc]).PushBytes()
		}
		info.HookAt = dense
	}
}
