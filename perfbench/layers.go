package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dmvcc/internal/baseline"
	"dmvcc/internal/chain"
	"dmvcc/internal/core"
	"dmvcc/internal/keccak"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// Span names: one per layer entry point the traced run calls.
const (
	spanBlock   = "block"
	spanAnalyze = "sag.AnalyzeBlock"
	spanSerial  = "baseline.ExecuteSerial"
	spanExecute = "core.Executor.ExecuteBlock"
	spanCommit  = "state.Backend.Commit"
)

// tracedChunks is how many of the timed round's chunks the traced run
// passes through the layers: enough blocks for steady per-layer figures,
// few enough that a traced run takes no longer than an untraced one.
const tracedChunks = 2

// runTraced reports the per-layer metrics: the ones the timed rounds
// already measured, then a traced and an untraced pass of the same blocks
// through each layer on fresh worlds. It returns the traced blocks
// attempted and failed; a traced block fails when a layer returns an error
// for it or its root differs from the timed serial run's root for that
// block. A failed block is counted and the pass goes on with the next.
func runTraced(r reporter, s spec, cfg workload.Config, o options, t *timed) (attempted, failed int, err error) {
	blocks := float64(t.dmBlocks)
	txs := float64(t.txs)
	r.put("chain.analysis_hidden_frac", "frac", t.pipe.OverlapFraction())
	r.put("chain.stall_ms_per_block", "ms", ms(t.pipe.Stall)/blocks)
	r.put("chain.commit_wait_ms_per_block", "ms", ms(t.pipe.CommitWait)/blocks)
	r.put("chain.serial_commit_wait_ms_per_block", "ms", ms(t.serialWait)/float64(t.serialBlocks))
	r.put("core.executions_per_tx", "ratio", float64(t.stats.executions)/txs)
	r.put("core.aborts_per_block", "count", float64(t.stats.aborts)/blocks)
	r.put("core.blocked_reads_per_tx", "count", float64(t.stats.blocked)/txs)
	r.put("core.dispatch_run_len", "tx", float64(t.stats.dispatched)/float64(max(t.stats.runs, 1)))
	r.put("core.wasted_gas_frac", "frac", float64(t.wasted)/float64(max(t.wasted+t.useful, 1)))
	r.put("core.degraded_blocks", "blocks", float64(t.degraded))
	r.put("runtime.gc_cycles_per_block", "count", float64(t.gcCycles)/blocks)
	r.put("runtime.gc_pause_ms_per_block", "ms", ms(t.gcPause)/blocks)
	r.put("runtime.alloc_mb_per_block", "MB", float64(t.allocB)/(1<<20)/blocks)

	// The untraced pass runs on one twin and the traced pass on the other,
	// block by block in alternating order, so drift in machine speed
	// reaches both alike. Both pass the first tracedChunks chunks of the
	// timed round, whose serial roots they must reproduce.
	n := min(len(t.roots), tracedChunks*s.chunk)
	su, err := buildSetup(cfg, n)
	if err != nil {
		return 0, 0, err
	}
	defer su.close()
	tr := newTracer()
	plain, traced := newLayerRun(su.twins[1], o.threads, nil), newLayerRun(su.twins[0], o.threads, tr)
	for i, b := range su.blocks {
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		for _, lr := range []*layerRun{first, second} {
			if err := lr.block(b); err != nil {
				fmt.Fprintf(r.w, "layer pass: %v (a failed block)\n", err)
			}
		}
	}

	self := selfTimes(tr.spans)
	ltxs := float64(traced.txs)
	lblocks := float64(len(traced.roots))
	r.put("sag.analyze_us_per_tx", "us/tx", us(self[spanAnalyze])/ltxs)
	r.put("sag.csag_coverage", "frac", float64(traced.covered)/ltxs)
	r.put("core.exec_us_per_tx", "us/tx", us(self[spanExecute])/ltxs)
	r.put("core.allocs_per_tx", "count", float64(traced.allocs)/ltxs)
	r.put("evm.serial_exec_us_per_tx", "us/tx", us(self[spanSerial])/ltxs)
	r.put("state.reads_per_tx", "count", float64(traced.reader.reads)/ltxs)
	r.put("state.read_ns_per_op", "ns", float64(traced.reader.ns)/float64(max(traced.reader.reads, 1)))
	r.put("state.commit_ms_per_block", "ms", ms(self[spanCommit])/lblocks)
	r.put("state.dirty_accounts_per_block", "count", float64(traced.dirtyAccts)/lblocks)
	r.put("state.dirty_slots_per_block", "count", float64(traced.dirtySlots)/lblocks)
	r.put("state.commit_account_ms", "ms", ms(traced.commitAcct)/lblocks)
	r.put("state.commit_storage_ms", "ms", ms(traced.commitStore)/lblocks)
	if traced.splitter == nil {
		fmt.Fprintf(r.w, "  the %s backend does not report the commit split; both read 0\n", backendName(cfg))
	}
	r.put("keccak.sum256_ns_32b", "ns", keccakNs())
	r.put("trace.overhead_frac", "frac", traced.wall.Seconds()/plain.wall.Seconds()-1)

	fmt.Fprintf(r.w, "self time per layer (traced pass, %d blocks, %d txs):\n", len(traced.roots), traced.txs)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(r.w, "  %-28s %10.3f ms/block %10.3f us/tx\n", n, ms(self[n])/lblocks, us(self[n])/ltxs)
	}

	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed))
	if err := tr.write(path); err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(r.w, "span file: %s (%d spans)\n", path, len(tr.spans))

	failed = countFailed(traced.roots, t.roots[:n]) + countFailed(plain.roots, t.roots[:n])
	fmt.Fprintf(r.w, "traced roots vs timed serial roots: %d of %d blocks failed or differ\n", failed, 2*n)
	return 2 * n, failed, nil
}

// countingReader counts and times the reads the serial executor makes of
// committed state. It forwards a plain state.Reader, which is all
// ExecuteSerial takes; it is never handed to the engine, whose Backend
// capabilities (the async committer) it would hide.
type countingReader struct {
	r     state.Reader
	reads int64
	ns    int64
}

func (c *countingReader) timed(start time.Time) {
	c.ns += int64(time.Since(start))
	c.reads++
}

func (c *countingReader) Balance(a types.Address) u256.Int {
	defer c.timed(time.Now())
	return c.r.Balance(a)
}

func (c *countingReader) Nonce(a types.Address) uint64 {
	defer c.timed(time.Now())
	return c.r.Nonce(a)
}

func (c *countingReader) Code(a types.Address) []byte {
	defer c.timed(time.Now())
	return c.r.Code(a)
}

func (c *countingReader) Storage(a types.Address, k types.Hash) u256.Int {
	defer c.timed(time.Now())
	return c.r.Storage(a, k)
}

func (c *countingReader) Exists(a types.Address) bool {
	defer c.timed(time.Now())
	return c.r.Exists(a)
}

// layerRun is one pass of the blocks through each layer's entry point in
// turn: analysis, serial execution, DMVCC execution, synchronous commit.
// With a tracer it records a "block" span per block with one child per
// layer call, and counts reads and allocations; without one it makes the
// same calls bare, which is the untraced baseline for the tracing
// overhead.
type layerRun struct {
	w       *workload.World
	an      *sag.Analyzer
	threads int
	tr      *tracer
	// serialState is what ExecuteSerial reads: the counting reader when
	// traced, else the world's backend.
	serialState state.Reader
	splitter    interface{ LastCommitStats() state.CommitStats }

	wall  time.Duration
	roots []types.Hash

	txs, covered            int
	reader                  countingReader
	allocs                  uint64
	dirtyAccts, dirtySlots  int
	commitAcct, commitStore time.Duration
}

func newLayerRun(w *workload.World, threads int, tr *tracer) *layerRun {
	lr := &layerRun{w: w, an: sag.NewAnalyzer(w.Registry), threads: threads, tr: tr, serialState: w.DB}
	lr.reader.r = w.DB
	if tr != nil {
		lr.serialState = &lr.reader
	}
	lr.splitter, _ = w.DB.(interface{ LastCommitStats() state.CommitStats })
	return lr
}

// block drives one block through the layers, starting from a collected
// heap, and adds its wall time and txs to the pass. When a layer returns
// an error the block's root is the zero hash, which matches no reference
// root, so the block counts as failed.
func (lr *layerRun) block(b chain.BlockInput) error {
	runtime.GC()
	start := time.Now()
	blk := lr.tr.begin(spanBlock, b.Block.Number, -1)
	root, err := lr.layers(b, blk)
	lr.tr.end(blk)
	lr.wall += time.Since(start)
	lr.roots = append(lr.roots, root)
	lr.txs += len(b.Txs)
	return err
}

// layers makes the block's four layer calls, each in a child span of blk,
// and returns the committed root.
func (lr *layerRun) layers(b chain.BlockInput, blk int) (types.Hash, error) {
	tr, db, num := lr.tr, lr.w.DB, b.Block.Number

	id := tr.begin(spanAnalyze, num, blk)
	csags, err := lr.an.AnalyzeBlock(b.Txs, db, b.Block)
	tr.end(id)
	if err != nil {
		return types.Hash{}, fmt.Errorf("analyze block %d: %w", num, err)
	}
	for _, c := range csags {
		if c != nil {
			lr.covered++
		}
	}

	id = tr.begin(spanSerial, num, blk)
	_, err = baseline.ExecuteSerial(lr.serialState, b.Block, b.Txs)
	tr.end(id)
	if err != nil {
		return types.Hash{}, fmt.Errorf("serial block %d: %w", num, err)
	}

	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	id = tr.begin(spanExecute, num, blk)
	res, err := core.NewExecutor(lr.w.Registry, lr.threads).ExecuteBlock(db, b.Block, b.Txs, csags)
	tr.end(id)
	if tr != nil {
		runtime.ReadMemStats(&m1)
		lr.allocs += m1.Mallocs - m0.Mallocs
	}
	if err != nil {
		return types.Hash{}, fmt.Errorf("execute block %d: %w", num, err)
	}

	id = tr.begin(spanCommit, num, blk)
	root, err := db.Commit(res.WriteSet)
	tr.end(id)
	if err != nil {
		return types.Hash{}, fmt.Errorf("commit block %d: %w", num, err)
	}
	accts, slots := dirtyCounts(res.WriteSet)
	lr.dirtyAccts += accts
	lr.dirtySlots += slots
	if lr.splitter != nil {
		cs := lr.splitter.LastCommitStats()
		lr.commitAcct += time.Duration(cs.AccountNs)
		lr.commitStore += time.Duration(cs.StorageNs)
	}
	return root, nil
}

// dirtyCounts sizes a write set: distinct accounts it touches and storage
// slots it writes.
func dirtyCounts(ws *state.WriteSet) (accounts, slots int) {
	seen := make(map[types.Address]struct{})
	for a := range ws.Balances {
		seen[a] = struct{}{}
	}
	for a := range ws.Nonces {
		seen[a] = struct{}{}
	}
	for a := range ws.Codes {
		seen[a] = struct{}{}
	}
	for a, m := range ws.Storage {
		seen[a] = struct{}{}
		slots += len(m)
	}
	return len(seen), slots
}

// keccakSink keeps the hashing loop from being optimized away.
var keccakSink [32]byte

// keccakNs returns the median ns of one keccak.Sum256 over a 32-byte input,
// over several timed batches, starting from a collected heap so no GC
// work left by the passes runs beside it.
func keccakNs() float64 {
	const batches, perBatch = 15, 500
	runtime.GC()
	in := make([]byte, 32)
	for i := range in {
		in[i] = byte(i)
	}
	samples := make([]float64, batches)
	for b := range samples {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			keccakSink = keccak.Sum256(in)
			in[0] = keccakSink[0]
		}
		samples[b] = float64(time.Since(start).Nanoseconds()) / perBatch
	}
	return median(samples)
}
