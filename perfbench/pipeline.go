package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/state"
	"dmvcc/internal/trie"
	"dmvcc/internal/types"
	"dmvcc/internal/workload"
)

// setup is a pair of twin worlds and the blocks both will execute.
type setup struct {
	twins  [2]*workload.World
	blocks []chain.BlockInput
	took   time.Duration
}

// buildSetup builds two twin worlds from cfg (deploy plus genesis commit)
// and generates n blocks from the seed. Worlds from equal configs are
// byte-identical, so both start from the same root.
func buildSetup(cfg workload.Config, n int) (*setup, error) {
	start := time.Now()
	s := &setup{}
	for i := range s.twins {
		w, err := workload.BuildWorld(cfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("build twin world: %w", err)
		}
		s.twins[i] = w
	}
	s.blocks = make([]chain.BlockInput, n)
	for i := range s.blocks {
		s.blocks[i] = chain.BlockInput{Block: s.twins[0].BlockContext(), Txs: s.twins[0].NextBlock()}
	}
	s.took = time.Since(start)
	return s, nil
}

func (s *setup) close() {
	for _, w := range s.twins {
		if w != nil {
			// Closing an in-memory backend only stops its committer; an
			// error cannot change what was measured.
			_ = w.DB.Close()
		}
	}
}

// pipeRun is one ExecutePipelinedHooked call, measured with tracing off.
type pipeRun struct {
	out  *chain.PipelineOut
	err  error
	wall time.Duration
	// blockMs is each block's interval from its ExecStart to the next
	// block's ExecStart. The call's last block has none: its interval
	// would end in the pipeline's drain, which a node's endless pipeline
	// never makes and which the benchmark adds only by cutting the blocks
	// into calls.
	blockMs []float64
	// The runtime's GC and allocation activity during the call.
	gcCycles uint32
	gcPause  time.Duration
	allocB   uint64
}

// runPipeline feeds blocks through the engine's pipelined node path under
// mode: block N+1's analysis overlaps block N's execution and commits go
// through CommitAsync. The engine takes the next block when it is ready.
func runPipeline(mode chain.Mode, w *workload.World, blocks []chain.BlockInput, threads int) pipeRun {
	eng := chain.NewEngine(w.DB, w.Registry, threads)
	starts := make([]time.Time, len(blocks))
	hooks := chain.PipelineHooks{ExecStart: func(i int) { starts[i] = time.Now() }}

	// Start every measured call from a collected heap, so garbage from the
	// set-up or the other mode's run is not charged to this one.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err := eng.ExecutePipelinedHooked(mode, blocks, hooks)
	end := time.Now()
	runtime.ReadMemStats(&after)

	r := pipeRun{
		out:      out,
		err:      err,
		wall:     end.Sub(t0),
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		allocB:   after.TotalAlloc - before.TotalAlloc,
	}
	if err != nil {
		return r
	}
	r.blockMs = make([]float64, max(len(blocks)-1, 0))
	for i := range r.blockMs {
		r.blockMs[i] = float64(starts[i+1].Sub(starts[i])) / float64(time.Millisecond)
	}
	return r
}

// committedTxs counts the receipts of a successful pipelined run.
func (r pipeRun) committedTxs() int {
	if r.out == nil {
		return 0
	}
	n := 0
	for _, o := range r.out.Outs {
		n += len(o.Receipts)
	}
	return n
}

// txPerS is the call's committed txs over its wall time: first block in
// to last root out.
func (r pipeRun) txPerS() float64 {
	return float64(r.committedTxs()) / r.wall.Seconds()
}

func (r pipeRun) roots() []types.Hash {
	if r.out == nil {
		return nil
	}
	return r.out.Roots
}

// timed accumulates the untraced rounds: end-to-end samples plus the
// per-layer counters the public API already returns.
type timed struct {
	blocks, failed int

	// One set-up sample per round, one tx/s sample per pipelined call, one
	// interval per DMVCC block.
	setupS, dmvccTxS, serialTxS []float64
	blockMs                     []float64

	// Roots of the first round's serial calls, block by block, the oracle
	// the traced run must reproduce (every round executes the same
	// blocks). A block whose serial call failed has the zero hash, which
	// matches no root.
	roots []types.Hash

	pipe         chain.PipelineStats // DMVCC pipeline, summed
	serialWait   time.Duration       // serial pipeline's CommitWait, summed
	dmBlocks     int                 // blocks in successful DMVCC calls
	serialBlocks int                 // blocks in successful serial calls
	txs          int64
	stats        struct{ executions, aborts, blocked, runs, dispatched int64 }
	wasted       uint64
	useful       uint64
	degraded     int
	gcCycles     uint32
	gcPause      time.Duration
	allocB       uint64
}

// runRounds runs the timed rounds. Each builds fresh twin worlds and
// chunks*chunk blocks, then feeds the blocks chunk by chunk through the
// DMVCC and the serial pipeline, each twin continuing from its own last
// commit. Which mode goes first alternates from chunk to chunk, so drift
// in machine speed reaches both alike. Every DMVCC root is checked
// against the serial twin's.
func runRounds(cfg workload.Config, rounds, chunks, chunk, threads int, log func(string, ...any)) (*timed, error) {
	t := &timed{}
	calls := 0
	for r := 0; r < rounds; r++ {
		s, err := buildSetup(cfg, chunks*chunk)
		if err != nil {
			return nil, err
		}
		t.setupS = append(t.setupS, s.took.Seconds())
		var dmWall, seWall time.Duration
		var dmTxS, seTxS []string
		for c := 0; c < chunks; c++ {
			blocks := s.blocks[c*chunk : (c+1)*chunk]
			var dm, se pipeRun
			if calls%2 == 0 {
				dm = runPipeline(chain.ModeDMVCC, s.twins[0], blocks, threads)
				se = runPipeline(chain.ModeSerial, s.twins[1], blocks, threads)
			} else {
				se = runPipeline(chain.ModeSerial, s.twins[1], blocks, threads)
				dm = runPipeline(chain.ModeDMVCC, s.twins[0], blocks, threads)
			}
			calls++
			t.add(dm, se, len(blocks))
			if r == 0 {
				roots := se.roots()
				if se.err != nil {
					roots = make([]types.Hash, len(blocks))
				}
				t.roots = append(t.roots, roots...)
			}
			dmWall += dm.wall
			seWall += se.wall
			dmTxS = append(dmTxS, fmt.Sprintf("%.0f", dm.txPerS()))
			seTxS = append(seTxS, fmt.Sprintf("%.0f", se.txPerS()))
			if dm.err != nil {
				log("round %d chunk %d: dmvcc pipeline error: %v", r, c, dm.err)
			}
			if se.err != nil {
				log("round %d chunk %d: serial pipeline error: %v", r, c, se.err)
			}
		}
		s.close()
		log("round %d: setup %.3fs  dmvcc %.3fs  serial %.3fs over %d calls of %d blocks  failed %d/%d",
			r, s.took.Seconds(), dmWall.Seconds(), seWall.Seconds(), chunks, chunk, t.failed, t.blocks)
		log("  tx/s per call: dmvcc %s  serial %s", strings.Join(dmTxS, " "), strings.Join(seTxS, " "))
	}
	return t, nil
}

// add folds one chunk's pair of pipelined calls into the totals. A block
// fails when either call returned an error (every block of that call
// counts, as the engine reports no partial result) or when its DMVCC root
// differs from the serial root.
func (t *timed) add(dm, se pipeRun, n int) {
	t.blocks += n
	if dm.err != nil || se.err != nil {
		t.failed += n
	} else {
		t.failed += countFailed(dm.roots(), se.roots())
	}
	if se.err == nil {
		t.serialTxS = append(t.serialTxS, se.txPerS())
		t.serialWait += se.out.Stats.CommitWait
		t.serialBlocks += n
	}
	if dm.err != nil {
		return
	}
	t.dmvccTxS = append(t.dmvccTxS, dm.txPerS())
	t.blockMs = append(t.blockMs, dm.blockMs...)
	st := dm.out.Stats
	t.pipe.AnalysisWall += st.AnalysisWall
	t.pipe.Overlap += st.Overlap
	t.pipe.Stall += st.Stall
	t.pipe.CommitWait += st.CommitWait
	t.dmBlocks += n
	for _, o := range dm.out.Outs {
		t.txs += int64(len(o.Receipts))
		t.stats.executions += o.Stats.Executions
		t.stats.aborts += o.Stats.Aborts
		t.stats.blocked += o.Stats.BlockedReads
		t.stats.runs += o.Stats.DispatchRuns
		t.stats.dispatched += o.Stats.DispatchedTxs
		t.wasted += o.WastedGas
		for _, c := range o.GasCosts {
			t.useful += c
		}
		if o.Stats.Degraded {
			t.degraded++
		}
	}
	t.gcCycles += dm.gcCycles
	t.gcPause += dm.gcPause
	t.allocB += dm.allocB
}

// backendName names the state backend a world config commits into.
func backendName(cfg workload.Config) string {
	if cfg.Backend == nil {
		return "trie"
	}
	return "flat"
}

// flatBackend is the in-memory flat backend with the sharded account trie
// and the async committer, as a node would run it.
func flatBackend() (state.Backend, error) {
	return state.NewFlat(state.FlatOpts{Shards: trie.ShardCount})
}
