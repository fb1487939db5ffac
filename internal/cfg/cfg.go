// Package cfg recovers control-flow graphs from bytecode and computes the
// static analyses the state-access-graph builder needs: which program
// points can still reach an abortable instruction (release points, §IV-C),
// an upper bound on the gas any remaining path can consume (the gas field
// of release points), loop detection (P-SAG loop nodes), and best-effort
// static resolution of storage keys (constant-slot accesses).
package cfg

import (
	"math"
	"sort"

	"dmvcc/internal/asm"
	"dmvcc/internal/evm"
	"dmvcc/internal/u256"
)

// GasUnbounded marks a gas bound that a loop makes infinite.
const GasUnbounded = math.MaxUint64

// Block is one basic block.
type Block struct {
	Start  uint64
	Instrs []asm.Instruction
	Succs  []uint64 // successor block start pcs

	// hasAbortable reports an abortable instruction inside this block.
	hasAbortable bool
}

// End returns the pc just past the last instruction.
func (b *Block) End() uint64 {
	if len(b.Instrs) == 0 {
		return b.Start
	}
	last := b.Instrs[len(b.Instrs)-1]
	return last.PC + last.Size()
}

// Graph is a control-flow graph over basic blocks keyed by start pc.
type Graph struct {
	Blocks map[uint64]*Block
	Order  []uint64 // block starts in ascending pc order
}

// Build constructs the CFG of code. Jump targets are resolved through the
// immediately-preceding PUSH (the pattern every compiler emits); a jump
// whose target cannot be resolved conservatively targets every JUMPDEST.
func Build(code []byte) *Graph {
	instrs := asm.Disassemble(code)
	dests := evm.JumpDests(code)

	// Leaders: pc 0, every JUMPDEST, every instruction after a jump or
	// terminator.
	leaders := map[uint64]bool{0: true}
	for i, ins := range instrs {
		if ins.Op == evm.JUMPDEST {
			leaders[ins.PC] = true
		}
		switch ins.Op {
		case evm.JUMP, evm.JUMPI, evm.STOP, evm.RETURN, evm.REVERT, evm.INVALID:
			if i+1 < len(instrs) {
				leaders[instrs[i+1].PC] = true
			}
		}
	}

	g := &Graph{Blocks: make(map[uint64]*Block)}
	var cur *Block
	for _, ins := range instrs {
		if leaders[ins.PC] {
			cur = &Block{Start: ins.PC}
			g.Blocks[ins.PC] = cur
			g.Order = append(g.Order, ins.PC)
		}
		if cur == nil { // dead code before the first leader cannot happen (0 is a leader)
			continue
		}
		cur.Instrs = append(cur.Instrs, ins)
	}
	sort.Slice(g.Order, func(i, j int) bool { return g.Order[i] < g.Order[j] })

	var allDests []uint64 // ascending: instrs are in pc order
	for _, ins := range instrs {
		if ins.Op == evm.JUMPDEST {
			allDests = append(allDests, ins.PC)
		}
	}

	// Successor edges.
	for _, start := range g.Order {
		b := g.Blocks[start]
		if len(b.Instrs) == 0 {
			continue
		}
		for _, ins := range b.Instrs {
			if ins.Op.Abortable() {
				b.hasAbortable = true
			}
		}
		last := b.Instrs[len(b.Instrs)-1]
		fall := last.PC + last.Size()
		switch last.Op {
		case evm.JUMP:
			b.Succs = jumpTargets(b, dests, allDests)
		case evm.JUMPI:
			b.Succs = jumpTargets(b, dests, allDests)
			if _, ok := g.Blocks[fall]; ok {
				b.Succs = append(b.Succs, fall)
			}
		case evm.STOP, evm.RETURN, evm.REVERT, evm.INVALID:
			// no successors
		default:
			if _, ok := g.Blocks[fall]; ok {
				b.Succs = append(b.Succs, fall)
			}
		}
	}
	return g
}

// jumpTargets resolves the jump at the end of b. The resolvable case is a
// PUSH immediately before the JUMP/JUMPI.
func jumpTargets(b *Block, dests evm.JumpDestSet, allDests []uint64) []uint64 {
	if len(b.Instrs) >= 2 {
		prev := b.Instrs[len(b.Instrs)-2]
		if prev.Op.IsPush() {
			target := u256.FromBytes(prev.Arg)
			if target.IsUint64() && dests.Has(target.Uint64()) {
				return []uint64{target.Uint64()}
			}
			return nil // statically invalid jump: runtime error, no successors
		}
	}
	// Unresolvable: conservatively, any JUMPDEST.
	out := make([]uint64, len(allDests))
	copy(out, allDests)
	return out
}

// blockOf returns the start pc of the block containing pc, or (0, false).
func (g *Graph) blockOf(pc uint64) (uint64, bool) {
	idx := sort.Search(len(g.Order), func(i int) bool { return g.Order[i] > pc })
	if idx == 0 {
		return 0, len(g.Order) > 0 && g.Order[0] <= pc
	}
	start := g.Order[idx-1]
	return start, pc < g.Blocks[start].End()
}

// BackEdges returns the back edges (from, to) discovered by DFS from the
// entry block — each corresponds to a loop (a P-SAG loop node).
func (g *Graph) BackEdges() [][2]uint64 {
	var edges [][2]uint64
	state := make(map[uint64]int, len(g.Blocks)) // 0 unvisited, 1 on stack, 2 done
	var dfs func(u uint64)
	dfs = func(u uint64) {
		state[u] = 1
		b := g.Blocks[u]
		if b != nil {
			for _, v := range b.Succs {
				switch state[v] {
				case 1:
					edges = append(edges, [2]uint64{u, v})
				case 0:
					dfs(v)
				}
			}
		}
		state[u] = 2
	}
	if len(g.Order) > 0 {
		dfs(g.Order[0])
	}
	return edges
}

// Analysis bundles the per-pc static facts used for release points.
type Analysis struct {
	graph *Graph

	// abortableFromBlock: an abortable instruction is reachable starting
	// anywhere in this block or its successors.
	abortableFromSucc map[uint64]bool

	// gasBoundBlock is the max gas consumable from a block's entry onward.
	gasBoundBlock map[uint64]uint64
}

// Analyze builds the CFG of code and runs the release-point analyses.
func Analyze(code []byte) *Analysis {
	g := Build(code)
	a := &Analysis{
		graph:             g,
		abortableFromSucc: make(map[uint64]bool, len(g.Blocks)),
		gasBoundBlock:     make(map[uint64]uint64, len(g.Blocks)),
	}
	a.computeAbortable()
	a.computeGasBounds()
	return a
}

// Graph exposes the underlying CFG.
func (a *Analysis) Graph() *Graph { return a.graph }

// computeAbortable: fixpoint of "this block or anything reachable from it
// contains an abortable instruction".
func (a *Analysis) computeAbortable() {
	changed := true
	for changed {
		changed = false
		for _, start := range a.graph.Order {
			b := a.graph.Blocks[start]
			v := b.hasAbortable
			for _, s := range b.Succs {
				if a.abortableFromSucc[s] {
					v = true
					break
				}
			}
			if v && !a.abortableFromSucc[start] {
				a.abortableFromSucc[start] = true
				changed = true
			}
		}
	}
}

// computeGasBounds: memoized DFS; any cycle makes the bound unbounded.
func (a *Analysis) computeGasBounds() {
	const (
		stateNew = iota
		stateOnStack
		stateDone
	)
	state := make(map[uint64]int, len(a.graph.Blocks))
	var visit func(start uint64) uint64
	visit = func(start uint64) uint64 {
		switch state[start] {
		case stateOnStack:
			return GasUnbounded
		case stateDone:
			return a.gasBoundBlock[start]
		}
		state[start] = stateOnStack
		b := a.graph.Blocks[start]
		var local uint64
		for _, ins := range b.Instrs {
			local = satAdd(local, evm.MaxGasEstimate(ins.Op))
		}
		var best uint64
		for _, s := range b.Succs {
			if v := visit(s); v > best {
				best = v
			}
		}
		total := satAdd(local, best)
		state[start] = stateDone
		a.gasBoundBlock[start] = total
		return total
	}
	for _, start := range a.graph.Order {
		visit(start)
	}
}

func satAdd(a, b uint64) uint64 {
	if a == GasUnbounded || b == GasUnbounded || a+b < a {
		return GasUnbounded
	}
	return a + b
}

// Released reports whether pc is past every abortable instruction: nothing
// executed at or after pc (on any path) can deterministically abort. This
// is the membership test behind the paper's release points.
func (a *Analysis) Released(pc uint64) bool {
	start, ok := a.graph.blockOf(pc)
	if !ok {
		return false
	}
	b := a.graph.Blocks[start]
	// Abortable in the remainder of this block?
	for _, ins := range b.Instrs {
		if ins.PC >= pc && ins.Op.Abortable() {
			return false
		}
	}
	for _, s := range b.Succs {
		if a.abortableFromSucc[s] {
			return false
		}
	}
	return true
}

// GasBound returns an upper bound on the gas consumable from pc to the end
// of execution, or GasUnbounded if a loop is reachable.
func (a *Analysis) GasBound(pc uint64) uint64 {
	start, ok := a.graph.blockOf(pc)
	if !ok {
		return 0
	}
	b := a.graph.Blocks[start]
	var local uint64
	for _, ins := range b.Instrs {
		if ins.PC >= pc {
			local = satAdd(local, evm.MaxGasEstimate(ins.Op))
		}
	}
	var best uint64
	for _, s := range b.Succs {
		if v := a.gasBoundBlock[s]; v > best {
			best = v
		}
	}
	return satAdd(local, best)
}

// StaticAccess is a storage access found by constant-stack simulation.
type StaticAccess struct {
	PC    uint64
	Write bool
	Slot  u256.Int
	Known bool // Slot resolved statically; false = placeholder ρ(−)/ω(−)
}

// StaticAccesses scans each block with a constant-stack simulation and
// returns every SLOAD/SSTORE with its key, resolved where the key is a
// block-local constant (PUSH-fed). Unresolved keys become placeholders —
// the P-SAG entries later refined by the dynamic pass.
func (g *Graph) StaticAccesses() []StaticAccess {
	var out []StaticAccess
	for _, start := range g.Order {
		b := g.Blocks[start]
		// Simulated stack of (value, known) — entry stack is unknown.
		var stack []simVal
		pop := func() simVal {
			if len(stack) == 0 {
				return simVal{}
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return top
		}
		push := func(x simVal) { stack = append(stack, x) }
		for _, ins := range b.Instrs {
			switch {
			case ins.Op.IsPush():
				push(simVal{v: u256.FromBytes(ins.Arg), known: true})
			case ins.Op == evm.SLOAD:
				key := pop()
				out = append(out, StaticAccess{PC: ins.PC, Slot: key.v, Known: key.known})
				push(simVal{}) // loaded value unknown
			case ins.Op == evm.SSTORE:
				key := pop()
				pop() // value
				out = append(out, StaticAccess{PC: ins.PC, Write: true, Slot: key.v, Known: key.known})
			case ins.Op.IsDup():
				n := int(ins.Op - evm.DUP1)
				if len(stack) > n {
					push(stack[len(stack)-1-n])
				} else {
					push(simVal{})
				}
			case ins.Op.IsSwap():
				n := int(ins.Op-evm.SWAP1) + 1
				if len(stack) > n {
					top := len(stack) - 1
					stack[top], stack[top-n] = stack[top-n], stack[top]
				} else {
					stack = nil
				}
			case ins.Op == evm.ADD:
				x, y := pop(), pop()
				if x.known && y.known {
					var z u256.Int
					z.Add(&x.v, &y.v)
					push(simVal{v: z, known: true})
				} else {
					push(simVal{})
				}
			default:
				// Generic effect: consume inputs conservatively by clearing
				// knowledge when the op manipulates the stack in ways we
				// don't model; a simple approximation is to reset on any
				// other opcode that pops.
				stack = applyGenericEffect(stack, ins.Op)
			}
		}
	}
	return out
}

// simVal is one abstract stack cell of the constant-stack simulation.
type simVal struct {
	v     u256.Int
	known bool
}

// applyGenericEffect models unknown results for common arities. It only
// needs to keep the stack depth roughly aligned so PUSH-fed keys stay
// attached to the right SLOAD/SSTORE.
func applyGenericEffect(stack []simVal, op evm.Opcode) []simVal {
	popN := func(n int) {
		if len(stack) >= n {
			stack = stack[:len(stack)-n]
		} else {
			stack = nil
		}
	}
	pushUnknown := func() { stack = append(stack, simVal{}) }
	switch op {
	case evm.MUL, evm.SUB, evm.DIV, evm.SDIV, evm.MOD, evm.SMOD, evm.EXP,
		evm.SIGNEXTEND, evm.LT, evm.GT, evm.SLT, evm.SGT, evm.EQ, evm.AND,
		evm.OR, evm.XOR, evm.BYTE, evm.SHL, evm.SHR, evm.SAR:
		popN(2)
		pushUnknown()
	case evm.ISZERO, evm.NOT, evm.CALLDATALOAD, evm.BALANCE, evm.MLOAD:
		popN(1)
		pushUnknown()
	case evm.ADDMOD, evm.MULMOD:
		popN(3)
		pushUnknown()
	case evm.SHA3:
		popN(2)
		pushUnknown()
	case evm.POP:
		popN(1)
	case evm.MSTORE, evm.MSTORE8:
		popN(2)
	case evm.JUMP:
		popN(1)
	case evm.JUMPI:
		popN(2)
	case evm.ADDRESS, evm.ORIGIN, evm.CALLER, evm.CALLVALUE, evm.CALLDATASIZE,
		evm.CODESIZE, evm.RETURNDATASIZE, evm.COINBASE, evm.TIMESTAMP,
		evm.NUMBER, evm.GASLIMIT, evm.CHAINID, evm.SELFBALANCE, evm.PC,
		evm.MSIZE, evm.GAS:
		pushUnknown()
	case evm.BLOCKHASH:
		popN(1)
		pushUnknown()
	case evm.CALLDATACOPY, evm.CODECOPY, evm.RETURNDATACOPY:
		popN(3)
	case evm.CALL:
		popN(7)
		pushUnknown()
	case evm.LOG0, evm.LOG1, evm.LOG2, evm.LOG3, evm.LOG4:
		popN(2 + int(op-evm.LOG0))
	case evm.RETURN, evm.REVERT:
		popN(2)
	}
	return stack
}
