package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dmvcc/internal/core"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/sag/sagtest"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// hookBlock is one block of a hook-point scenario.
type hookBlock struct {
	ctx evm.BlockContext
	txs []*types.Transaction
}

// hookRun is everything observable about analysing and executing a
// scenario's blocks at one thread.
type hookRun struct {
	csags   [][]*sag.CSAG
	results []*core.Result
	roots   []types.Hash
}

// runHookBlocks analyses, executes at one thread and commits each block in
// turn on db.
func runHookBlocks(db state.Backend, reg *sag.Registry, blocks []hookBlock) (hookRun, error) {
	var out hookRun
	an := sag.NewAnalyzer(reg)
	ex := core.NewExecutor(reg, 1)
	for _, b := range blocks {
		csags, err := an.AnalyzeBlock(b.txs, db, b.ctx)
		if err != nil {
			return out, err
		}
		res, err := ex.ExecuteBlock(db, b.ctx, b.txs, csags)
		if err != nil {
			return out, err
		}
		root, err := db.Commit(res.WriteSet)
		if err != nil {
			return out, err
		}
		out.csags = append(out.csags, csags)
		out.results = append(out.results, res)
		out.roots = append(out.roots, root)
	}
	return out, nil
}

// mainnetHookBlocks is the number of mainnet-mix blocks the tests run.
const mainnetHookBlocks = 2

// runMainnet builds a workload.DefaultConfig world — with every contract's
// hook-point table replaced by the dense reference when dense is set — and
// runs mainnetHookBlocks blocks of its traffic.
func runMainnet(dense bool) (hookRun, error) {
	w, err := workload.BuildWorld(workload.DefaultConfig())
	if err != nil {
		return hookRun{}, err
	}
	if dense {
		for _, family := range [][]types.Address{w.Tokens, w.AMMs, w.NFTs, w.ICOs, w.Routers, w.Oracles} {
			sagtest.DenseHooks(w.Registry, family...)
		}
	}
	blocks := make([]hookBlock, mainnetHookBlocks)
	for i := range blocks {
		blocks[i] = hookBlock{ctx: w.BlockContext(), txs: w.NextBlock()}
	}
	return runHookBlocks(w.DB, w.Registry, blocks)
}

var (
	mainnetOnce                 sync.Once
	mainnetSparse, mainnetDense hookRun
	mainnetErr                  error
)

// mainnetRuns returns the sparse and dense mainnet runs, computed once for
// every test here (each is a few seconds under -race).
func mainnetRuns(t *testing.T) (sparse, dense hookRun) {
	t.Helper()
	mainnetOnce.Do(func() {
		if mainnetSparse, mainnetErr = runMainnet(false); mainnetErr == nil {
			mainnetDense, mainnetErr = runMainnet(true)
		}
	})
	if mainnetErr != nil {
		t.Fatal(mainnetErr)
	}
	return mainnetSparse, mainnetDense
}

// relaySrc reaches State through every hook-point op the mainnet mix lacks:
// CALL (external token calls and sends), BALANCE and SELFBALANCE — the
// balance reads ahead of a require, so their pcs are no release points and
// only their own state flag makes them hook points.
const relaySrc = `
contract Relay {
    uint lastResult;
    mapping(address => uint) deposits;

    function readRemote(address token, address who) public returns (uint) {
        uint v = Token(token).balanceOf(who);
        lastResult = v;
        return v;
    }

    function moveRemote(address token, address to, uint amount) public {
        Token(token).transfer(to, amount);
    }

    function deposit() public payable {
        deposits[msg.sender] += msg.value;
    }

    function withdraw(uint amount) public {
        require(deposits[msg.sender] >= amount);
        deposits[msg.sender] -= amount;
        require(send(msg.sender, amount));
    }

    function probe(address a) public returns (uint) {
        uint v = balance(a) + selfbalance();
        require(v > 1000);
        lastResult = v;
        return v;
    }
}
`

var relayAddr = types.HexToAddress("0xc000000000000000000000000000000000000005")

// runRelay deploys the token and relay fixture (dense tables when dense is
// set) and runs one block of calls through the relay.
func runRelay(dense bool) (hookRun, error) {
	db, reg := state.NewDB(), sag.NewRegistry()
	o := state.NewOverlay(db)
	for addr, src := range map[types.Address]string{tokenAddr: tokenSrc, relayAddr: relaySrc} {
		c, err := minisol.Compile(src)
		if err != nil {
			return hookRun{}, fmt.Errorf("compile: %w", err)
		}
		o.SetCode(addr, c.Code)
		reg.RegisterCompiled(addr, c)
	}
	balances := func(a types.Address) types.Hash { return minisol.MappingSlot(0, a.Word()) }
	o.SetStorage(tokenAddr, balances(relayAddr), u256.NewUint64(1_000_000))
	o.SetBalance(relayAddr, u256.NewUint64(1_000_000))
	for i := 0; i < 16; i++ {
		o.SetBalance(user(i), u256.NewUint64(1_000_000_000))
		o.SetStorage(tokenAddr, balances(user(i)), u256.NewUint64(10_000))
	}
	if _, err := db.Commit(o.Changes()); err != nil {
		return hookRun{}, err
	}
	if dense {
		sagtest.DenseHooks(reg, tokenAddr, relayAddr)
	}

	r := rand.New(rand.NewSource(3))
	var txs []*types.Transaction
	for i := 0; i < 48; i++ {
		from := user(r.Intn(16))
		switch i % 5 {
		case 0:
			txs = append(txs, call(from, relayAddr, 0, "readRemote", tokenAddr.Word(), user(r.Intn(16)).Word()))
		case 1:
			txs = append(txs, call(from, relayAddr, 0, "moveRemote", tokenAddr.Word(), user(r.Intn(16)).Word(), u256.NewUint64(uint64(1+r.Intn(500)))))
		case 2:
			txs = append(txs, call(from, relayAddr, uint64(1+r.Intn(900)), "deposit"))
		case 3:
			txs = append(txs, call(from, relayAddr, 0, "withdraw", u256.NewUint64(uint64(r.Intn(400)))))
		default:
			txs = append(txs, call(from, relayAddr, 0, "probe", user(r.Intn(16)).Word()))
		}
	}
	return runHookBlocks(db, reg, []hookBlock{{ctx: blk, txs: txs}})
}

// TestSparseHooksMatchDense runs each scenario twice at one thread: once
// with the real hook-point tables, once with the dense reference that
// hooks every instruction, as code without a table is hooked.
// Analysis and execution must be indistinguishable: same C-SAGs, roots,
// receipts, scheduler counters and per-transaction dependency traces down
// to each event's gas offset. Only the hook count itself may differ.
func TestSparseHooksMatchDense(t *testing.T) {
	t.Run("mainnet", func(t *testing.T) {
		sparse, dense := mainnetRuns(t)
		compareHookRuns(t, sparse, dense)
	})
	t.Run("relay", func(t *testing.T) {
		sparse, err := runRelay(false)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := runRelay(true)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for _, r := range sparse.results[0].Receipts {
			if r.Status == types.StatusSuccess {
				calls++
			}
		}
		if calls < 24 {
			t.Fatalf("only %d of 48 relay calls succeeded; the scenario no longer exercises its ops", calls)
		}
		compareHookRuns(t, sparse, dense)
	})
}

// compareHookRuns fails unless the sparse and dense runs are identical in
// everything but the hook count, which must be strictly smaller when sparse.
func compareHookRuns(t *testing.T, sparse, dense hookRun) {
	t.Helper()
	for b := range sparse.results {
		if sparse.roots[b] != dense.roots[b] {
			t.Fatalf("block %d: root %s with sparse hooks, %s with dense", b, sparse.roots[b], dense.roots[b])
		}
		for i, s := range sparse.csags[b] {
			d := dense.csags[b][i]
			if !reflect.DeepEqual(s.Reads, d.Reads) || !reflect.DeepEqual(s.Writes, d.Writes) ||
				!reflect.DeepEqual(s.Deltas, d.Deltas) ||
				s.PredictedGasUsed != d.PredictedGasUsed || s.PredictedStatus != d.PredictedStatus {
				t.Fatalf("block %d tx %d: C-SAG differs\nsparse %+v\ndense  %+v", b, i, s, d)
			}
		}
		sr, dr := sparse.results[b], dense.results[b]
		if !reflect.DeepEqual(sr.Receipts, dr.Receipts) {
			t.Fatalf("block %d: receipts differ", b)
		}
		ss, ds := sr.Stats, dr.Stats
		if ss.HookPoints >= ds.HookPoints {
			t.Errorf("block %d: %d sparse hook points, not fewer than %d dense", b, ss.HookPoints, ds.HookPoints)
		}
		ss.HookPoints, ds.HookPoints = 0, 0
		if ss != ds {
			t.Errorf("block %d: stats differ\nsparse %+v\ndense  %+v", b, ss, ds)
		}
		if sr.WastedGas != dr.WastedGas {
			t.Errorf("block %d: wasted gas %d sparse, %d dense", b, sr.WastedGas, dr.WastedGas)
		}
		for i := range sr.Traces {
			if !reflect.DeepEqual(sr.Traces[i], dr.Traces[i]) {
				t.Fatalf("block %d tx %d: trace differs\nsparse %+v\ndense  %+v", b, i, sr.Traces[i], dr.Traces[i])
			}
		}
	}
}

// TestHookPointShare gates the interpreter's scheduler overhead: on the
// mainnet mix, the step hook must run at no more than 20% of the executed
// instructions (the dense hook count); hooking every instruction scores 1.0.
func TestHookPointShare(t *testing.T) {
	sparse, dense := mainnetRuns(t)
	var hooked, executed int64
	for b := range sparse.results {
		hooked += sparse.results[b].Stats.HookPoints
		executed += dense.results[b].Stats.HookPoints
	}
	share := float64(hooked) / float64(executed)
	t.Logf("hooked %d of %d executed instructions (%.3f)", hooked, executed, share)
	if executed == 0 || share > 0.2 {
		t.Fatalf("hooked %d of %d executed instructions (%.3f), want <= 0.2", hooked, executed, share)
	}
}
