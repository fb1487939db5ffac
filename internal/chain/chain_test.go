package chain_test

import (
	"testing"

	"dmvcc/internal/chain"
	"dmvcc/internal/types"
	"dmvcc/internal/workload"
)

// smallConfig keeps world construction fast for tests.
func smallConfig(seed int64) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Users = 400
	cfg.ERC20s = 24
	cfg.AMMs = 10
	cfg.NFTs = 6
	cfg.ICOs = 3
	cfg.TxPerBlock = 200
	cfg.Seed = seed
	return cfg
}

// TestAllModesAgreeOnWorkload is the end-to-end RQ1 check: the same
// synthetic blocks executed under every scheme commit identical roots.
func TestAllModesAgreeOnWorkload(t *testing.T) {
	for _, hot := range []bool{false, true} {
		name := "low-contention"
		if hot {
			name = "high-contention"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(7)
			if hot {
				cfg = cfg.HighContention()
			}
			// One traffic source; four identical worlds.
			source, err := workload.BuildWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engines := make(map[chain.Mode]*chain.Engine, len(chain.Modes()))
			for _, m := range chain.Modes() {
				w, err := workload.BuildWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if w.DB.Root() != source.DB.Root() {
					t.Fatal("worlds with equal configs must have equal genesis roots")
				}
				engines[m] = chain.NewEngine(w.DB, w.Registry, 8)
			}

			for blockN := 0; blockN < 3; blockN++ {
				blockCtx := source.BlockContext()
				txs := source.NextBlock()
				roots := make(map[chain.Mode]types.Hash, len(chain.Modes()))
				for _, m := range chain.Modes() {
					out, root, err := engines[m].ExecuteAndCommit(m, blockCtx, txs)
					if err != nil {
						t.Fatalf("block %d mode %s: %v", blockN, m, err)
					}
					if len(out.Receipts) != len(txs) {
						t.Fatalf("mode %s produced %d receipts for %d txs", m, len(out.Receipts), len(txs))
					}
					roots[m] = root
				}
				want := roots[chain.ModeSerial]
				for _, m := range chain.Modes() {
					if roots[m] != want {
						t.Fatalf("block %d: mode %s root %s != serial %s", blockN, m, roots[m], want)
					}
				}
			}
		})
	}
}

// TestReceiptsCarryTxHash pins the receipt's transaction identity under
// every scheduler: schedulers hash each transaction once and hand the hash
// to every execution of it, so receipts from re-executed transactions
// (DMVCC incarnations, OCC rounds) must still carry tx.Hash().
func TestReceiptsCarryTxHash(t *testing.T) {
	cfg := smallConfig(5).HighContention()
	source, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blockCtx := source.BlockContext()
	txs := source.NextBlock()
	for _, m := range chain.Modes() {
		w, err := workload.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := chain.NewEngine(w.DB, w.Registry, 4).Execute(m, blockCtx, txs)
		if err != nil {
			t.Fatalf("mode %s: %v", m, err)
		}
		for i, r := range out.Receipts {
			if want := txs[i].Hash(); r.TxHash != want || r.TxIndex != i {
				t.Fatalf("mode %s tx %d: receipt (hash %s, index %d), want (%s, %d)", m, i, r.TxHash, r.TxIndex, want, i)
			}
		}
	}
}

func TestDMVCCStatsPopulated(t *testing.T) {
	cfg := smallConfig(3).HighContention()
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := chain.NewEngine(w.DB, w.Registry, 8)
	out, err := eng.Execute(chain.ModeDMVCC, w.BlockContext(), w.NextBlock())
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Executions == 0 {
		t.Error("no executions recorded")
	}
	if out.Stats.DeltaPublishes == 0 {
		t.Error("expected commutative deltas in mixed traffic")
	}
	if out.AnalysisTime == 0 || out.ExecTime == 0 {
		t.Error("timings not recorded")
	}
}

func TestUnknownMode(t *testing.T) {
	w, err := workload.BuildWorld(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eng := chain.NewEngine(w.DB, w.Registry, 2)
	if _, err := eng.Execute(chain.Mode("no-such-scheduler"), w.BlockContext(), nil); err == nil {
		t.Error("expected error for unknown mode")
	}
	if _, err := (&chain.ExecOut{}).Makespan(chain.Mode("no-such-scheduler"), 1); err == nil {
		t.Error("expected Makespan error for unknown mode")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a, err := workload.BuildWorld(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.BuildWorld(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.NextBlock(), b.NextBlock()
	if len(ta) != len(tb) {
		t.Fatal("block sizes differ")
	}
	for i := range ta {
		if ta[i].Hash() != tb[i].Hash() {
			t.Fatalf("tx %d differs across identically-seeded worlds", i)
		}
	}
}

func TestWorkloadMixRoughlyMatchesPaper(t *testing.T) {
	cfg := smallConfig(11)
	cfg.TxPerBlock = 4000
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	txs := w.NextBlock()
	var contractCalls int
	for _, tx := range txs {
		if tx.IsContractCall() {
			contractCalls++
		}
	}
	frac := float64(contractCalls) / float64(len(txs))
	if frac < 0.64 || frac > 0.74 {
		t.Errorf("contract-call fraction = %.3f, want ~0.69", frac)
	}
}

func TestValidateBlock(t *testing.T) {
	cfg := smallConfig(13)
	miner, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	validator, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	minerEng := chain.NewEngine(miner.DB, miner.Registry, 4)
	validatorEng := chain.NewEngine(validator.DB, validator.Registry, 8)

	// The miner executes serially and seals a block with the resulting root.
	blockCtx := miner.BlockContext()
	txs := miner.NextBlock()
	_, stateRoot, err := minerEng.ExecuteAndCommit(chain.ModeSerial, blockCtx, txs)
	if err != nil {
		t.Fatal(err)
	}
	blk := types.SealBlock(types.Hash{}, blockCtx.Number, blockCtx.Timestamp,
		blockCtx.GasLimit, blockCtx.Coinbase, stateRoot, txs)

	// Ship it over the wire; the validator re-executes under DMVCC.
	enc := types.EncodeBlock(blk)
	received, err := types.DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	receipts, err := validatorEng.ValidateBlock(chain.ModeDMVCC, received)
	if err != nil {
		t.Fatal(err)
	}
	if len(receipts) != len(txs) {
		t.Fatalf("%d receipts", len(receipts))
	}

	// A tampered state root must be rejected by a fresh validator.
	validator2, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blk2 := *blk
	blk2.Header.StateRoot[0] ^= 0xff
	if _, err := chain.NewEngine(validator2.DB, validator2.Registry, 4).
		ValidateBlock(chain.ModeDMVCC, &blk2); err == nil {
		t.Error("tampered state root accepted")
	}
}

// TestModesAgreeWithFees: nonzero gas prices route fees through every
// scheduler (coinbase credits, refunds); roots must still agree.
func TestModesAgreeWithFees(t *testing.T) {
	cfg := smallConfig(21)
	source, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blockCtx := source.BlockContext()
	blockCtx.Coinbase = types.HexToAddress("0xc01bee0000000000000000000000000000000001")
	txs := source.NextBlock()
	for i, tx := range txs {
		cp := *tx
		cp.GasPrice = types.HexToHash("0x00").Word() // zero word
		cp.GasPrice[0] = uint64(1 + i%4)             // 1..4 wei per gas
		txs[i] = &cp
	}
	var want types.Hash
	for _, m := range chain.Modes() {
		w, err := workload.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := chain.NewEngine(w.DB, w.Registry, 8)
		_, root, err := eng.ExecuteAndCommit(m, blockCtx, txs)
		if err != nil {
			t.Fatalf("mode %s: %v", m, err)
		}
		if want.IsZero() {
			want = root
		} else if root != want {
			t.Fatalf("mode %s diverged with fees", m)
		}
	}
}
