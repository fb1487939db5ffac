package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"dmvcc/internal/chain"
	"dmvcc/internal/types"
	"dmvcc/internal/workload"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{n: 19, q: 0.50, ok: false},
		{n: 20, q: 0.50, ok: true},
		{n: 39, q: 0.50, ok: true},
		{n: 40, q: 0.75, ok: true},
		{n: 99, q: 0.75, ok: true},
		{n: 100, q: 0.90, ok: true},
		{n: 1000, q: 0.99, ok: true},
		{n: 10000, q: 0.999, ok: true},
	}
	for _, c := range cases {
		q, ok := tailPercentile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g ok=%v, want p%g ok=%v", c.n, 100*q, ok, 100*c.q, c.ok)
		}
		if ok && c.n-rank(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, 100*q, c.n-rank(c.n, q))
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30 (10 samples beyond)", got)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "block", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "c", ID: 2, Parent: 1, Start: 15, End: 20},
		{Name: "b", ID: 3, Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "d", ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	// block: 100 minus [10,50) and [90,100) = 50. a: 20 minus c's 5.
	want := map[string]int64{"block": 50, "a": 15, "c": 5, "b": 30, "d": 30}
	for name, w := range want {
		if int64(got[name]) != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestFailedBlocksCountsRootMismatch(t *testing.T) {
	a, b := types.Hash{1}, types.Hash{2}
	if n := countFailed([]types.Hash{a, a, b}, []types.Hash{a, b, b}); n != 1 {
		t.Errorf("one differing root: failed = %d, want 1", n)
	}
	if n := countFailed([]types.Hash{a}, []types.Hash{a, b}); n != 1 {
		t.Errorf("one missing root: failed = %d, want 1", n)
	}

	run := func(roots ...types.Hash) pipeRun {
		out := &chain.PipelineOut{Roots: roots}
		for range roots {
			out.Outs = append(out.Outs, &chain.ExecOut{})
		}
		return pipeRun{out: out, wall: 1}
	}
	var tm timed
	tm.add(run(a, b, a), run(a, a, a), 3)
	if tm.failed != 1 || tm.blocks != 3 {
		t.Fatalf("after mismatching round: failed %d of %d, want 1 of 3", tm.failed, tm.blocks)
	}
	errRun := pipeRun{err: os.ErrInvalid}
	tm.add(errRun, run(a, a), 2)
	if tm.failed != 3 || tm.blocks != 5 {
		t.Fatalf("after failed pipeline: failed %d of %d, want 3 of 5", tm.failed, tm.blocks)
	}
}

// A pipeline that fails in every round leaves its metrics without a
// sample: the run still reports its failed blocks and a result line,
// marked incorrect, instead of stopping.
func TestPipelineErrorInEveryRound(t *testing.T) {
	a := types.Hash{1}
	serial := pipeRun{out: &chain.PipelineOut{Roots: []types.Hash{a, a}, Outs: []*chain.ExecOut{{}, {}}}, wall: 1}
	tm := timed{roots: serial.roots()}
	for i := 0; i < rounds; i++ {
		tm.setupS = append(tm.setupS, 1)
		tm.add(pipeRun{err: os.ErrInvalid}, serial, 2)
	}
	var out bytes.Buffer
	res := &result{Attempted: tm.blocks, Failed: tm.failed, Metrics: map[string]metric{}}
	reportEndToEnd(reporter{w: &out, m: res.Metrics}, &tm)
	res.finish(&out)
	if res.Correct || res.Failed != 2*rounds || res.Attempted != 2*rounds {
		t.Errorf("correct=%v failed=%d attempted=%d, want false %d %d", res.Correct, res.Failed, res.Attempted, 2*rounds, 2*rounds)
	}
	for _, name := range []string{"dmvcc_tx_per_s", "dmvcc_block_ms_p50", "dmvcc_block_ms_tail"} {
		if _, ok := res.Metrics[name]; ok {
			t.Errorf("%s reported without a successful DMVCC run", name)
		}
		if !strings.Contains(out.String(), name+" ") {
			t.Errorf("%s not printed as n/a\n%s", name, out.String())
		}
	}
	for _, name := range []string{"serial_tx_per_s", "setup_s", "peak_rss_mb"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s not reported", name)
		}
	}
	want := fmt.Sprintf("failed_blocks = %d / %d blocks", 2*rounds, 2*rounds)
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q\n%s", want, out.String())
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result line does not encode: %v", err)
	}

	// The traced run has no DMVCC counters to report and no serial root
	// of these blocks to match, so every traced block fails.
	s := tinySpec()
	s.cfg.Seed = 7
	out.Reset()
	tres := &result{Metrics: map[string]metric{}}
	o := options{seed: 7, trace: true, threads: runtime.NumCPU(), outDir: t.TempDir()}
	attempted, failed, err := runTraced(reporter{w: &out, m: tres.Metrics}, s, s.cfg, o, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if attempted != 2*len(tm.roots) || failed != attempted {
		t.Errorf("traced: failed %d of %d, want all of %d", failed, attempted, 2*len(tm.roots))
	}
	if _, ok := tres.Metrics["core.executions_per_tx"]; ok {
		t.Error("core.executions_per_tx reported without a successful DMVCC run")
	}
	if _, ok := tres.Metrics["sag.analyze_us_per_tx"]; !ok {
		t.Errorf("sag.analyze_us_per_tx not reported by the traced pass\n%s", out.String())
	}
	if _, err := json.Marshal(tres); err != nil {
		t.Errorf("traced result line does not encode: %v", err)
	}
}

func TestRefusesMoreThreadsThanCPUs(t *testing.T) {
	_, err := run(tinySpec(), options{seed: 1, seconds: 1, threads: runtime.NumCPU() + 1}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("run with %d threads on %d CPUs: err = %v, want a refusal", runtime.NumCPU()+1, runtime.NumCPU(), err)
	}
}

// tinySpec is a few small blocks on a small world with the flat backend,
// to exercise every path.
func tinySpec() spec {
	cfg := workload.DefaultConfig()
	cfg.Users, cfg.ERC20s, cfg.AMMs, cfg.NFTs, cfg.ICOs = 64, 4, 4, 2, 2
	cfg.TxPerBlock = 16
	cfg.Backend = flatBackend
	return spec{name: "tiny", cfg: cfg, chunk: 2, pairSeconds: 0.1}
}

// tinySeconds is a run length at which tinySpec makes three chunks per
// round, more than the traced run passes through the layers.
const tinySeconds = 12

func TestChunksPerRound(t *testing.T) {
	if got := tinySpec().chunksPerRound(tinySeconds); got != 3 || got <= tracedChunks {
		t.Errorf("tiny spec at %d s: %d chunks per round, want 3 (more than the %d traced)", tinySeconds, got, tracedChunks)
	}
	for _, s := range specs() {
		if got := s.chunksPerRound(1); got != 1 {
			t.Errorf("%s at 1 s: %d chunks per round, want the minimum 1", s.name, got)
		}
		if a, b := s.chunksPerRound(30), s.chunksPerRound(60); b <= a {
			t.Errorf("%s: %d chunks per round at 60 s, not more than %d at 30 s", s.name, b, a)
		}
	}
}

// tinyTrieSpec is tinySpec on the reference trie backend.
func tinyTrieSpec() spec {
	s := tinySpec()
	s.cfg.Backend = nil
	return s
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(specs()))
	}
	for _, w := range bf.Workloads {
		if _, err := specFor(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func TestEveryBenchmarkMetricIsPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		s     spec
		trace bool
	}{{tinySpec(), false}, {tinySpec(), true}, {tinyTrieSpec(), false}, {tinyTrieSpec(), true}} {
		label := fmt.Sprintf("%s backend, trace=%v", backendName(c.s.cfg), c.trace)
		var out bytes.Buffer
		// tinySeconds gives three chunks per round, so the runs cross
		// chunk boundaries in each mode and the traced run passes only
		// some of the timed round's blocks.
		o := options{seed: 7, seconds: tinySeconds, trace: c.trace, threads: runtime.NumCPU(), outDir: t.TempDir()}
		res, err := run(c.s, o, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", label, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", label, res.Correct, res.Failed, res.Attempted, out.String())
		}
		want := bf.EndToEnd
		if c.trace {
			want = bf.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s not reported", label, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
			}
			if !strings.Contains(out.String(), m.Name+" ") {
				t.Errorf("%s: %s not printed", label, m.Name)
			}
		}
	}
}
