package sag_test

import (
	"testing"

	"dmvcc/internal/asm"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
)

// TestHookTableMatchesFacts checks the hook-point table of a compiled token
// flag for flag: each instruction carries exactly the bits its op and the
// registry's CommLoads, CommStores and ReleasedAt facts call for (pc 0
// always a hook point), and no byte inside PUSH data is flagged.
func TestHookTableMatchesFacts(t *testing.T) {
	compiled, err := minisol.Compile(tokenSrc)
	if err != nil {
		t.Fatal(err)
	}
	info := sag.NewRegistry().RegisterCompiled(tokenAdr, compiled)
	if len(info.HookAt) != len(info.Code) {
		t.Fatalf("table has %d entries for %d code bytes", len(info.HookAt), len(info.Code))
	}
	boundary := make([]bool, len(info.Code))
	var seen uint8
	for _, ins := range asm.Disassemble(info.Code) {
		pc := ins.PC
		boundary[pc] = true
		var want uint8
		switch ins.Op {
		case evm.SLOAD, evm.SSTORE, evm.BALANCE, evm.SELFBALANCE, evm.CALL:
			want |= evm.HookState
		}
		if pc == 0 {
			want |= evm.HookState
		}
		if _, ok := info.CommLoads[pc]; ok {
			want |= evm.HookCommLoad
		}
		if info.CommStores[pc] {
			want |= evm.HookCommStore
		}
		if info.ReleasedAt[pc] {
			want |= evm.HookRelease
		}
		if got := info.HookAt[pc]; got != want {
			t.Errorf("pc %d (%s): flags %#x, want %#x", pc, ins.Op, got, want)
		}
		seen |= want
	}
	for pc, b := range boundary {
		if !b && info.HookAt[pc] != 0 {
			t.Errorf("pc %d is PUSH data but flagged %#x", pc, info.HookAt[pc])
		}
	}
	if all := evm.HookState | evm.HookCommLoad | evm.HookCommStore | evm.HookRelease; seen != all {
		t.Errorf("token table sets flags %#x, want every flag (%#x) exercised", seen, all)
	}
}

// TestHookTableSkipsPushData registers hand-assembled code whose PUSH
// immediates hold SLOAD/SSTORE bytes, with commutative sites claimed both
// at real instructions and inside the immediate: only the real
// instructions are flagged.
func TestHookTableSkipsPushData(t *testing.T) {
	// 0: PUSH2 0x5455, 3: POP, 4: PUSH1 0, 6: SLOAD, 7: PUSH1 0, 9: SSTORE, 10: STOP
	code := asm.New().Push(0x5455).Op(evm.POP).Push(0).Op(evm.SLOAD).Push(0).Op(evm.SSTORE, evm.STOP).MustBytes()
	if code[1] != byte(evm.SLOAD) || code[2] != byte(evm.SSTORE) || code[6] != byte(evm.SLOAD) || code[9] != byte(evm.SSTORE) {
		t.Fatalf("unexpected assembly % x", code)
	}
	comm := []minisol.CommSite{{LoadPC: 6, StorePC: 9}, {LoadPC: 1, StorePC: 2}}
	info := sag.NewRegistry().Register(tokenAdr, code, comm)
	want := map[int]uint8{
		0: evm.HookState,
		6: evm.HookState | evm.HookCommLoad,
		9: evm.HookState | evm.HookCommStore,
	}
	for pc := range code {
		got := info.HookAt[pc] &^ evm.HookRelease // release facts are cfg's business
		if got != want[pc] {
			t.Errorf("pc %d: flags %#x, want %#x", pc, got, want[pc])
		}
	}
}
