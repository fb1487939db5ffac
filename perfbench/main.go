// Command perfbench is the repository's benchmark: committed tx/s and
// per-block time of DMVCC against serial execution on the pipelined node
// path (C-SAG analysis, execution, commit), with a traced run that splits
// a block's time by layer. See METRICS.md for every metric and workload.
//
// It is normally started through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload mainnet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted
// and failed (in blocks) plus the metrics, the end-to-end ones with
// --trace 0 and the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"dmvcc/internal/workload"
)

// spec is one workload: the traffic and backend, and how a run is sized.
type spec struct {
	name string
	cfg  workload.Config
	// chunk is the number of blocks per pipelined call. A round feeds its
	// blocks to each mode as a series of calls of chunk blocks, so a run
	// yields many tx/s samples and their median outlasts a slow stretch
	// of a shared machine.
	chunk int
	// pairSeconds is what one chunk takes through both pipelines on the
	// 2-CPU reference machine.
	pairSeconds float64
}

// rounds is the number of rounds a run makes, so that set-up time is a
// median of several set-ups; every round starts from fresh twin worlds.
const rounds = 3

// setupSeconds is what one round's set-up takes on the reference machine.
const setupSeconds = 3.6

// blockTxs is the paper's RQ2 block size.
const blockTxs = 1024

// chunksPerRound is how many chunks each round executes: as many as fit
// in the round's share of --seconds on the reference machine after its
// set-up, and at least one. The work depends only on the arguments, so
// two builds compared at equal arguments execute the same blocks.
func (s spec) chunksPerRound(seconds int) int {
	free := float64(seconds)/rounds - setupSeconds
	return max(1, int(math.Floor(free/s.pairSeconds)))
}

func specs() []spec {
	mainnet := workload.DefaultConfig()
	mainnet.TxPerBlock = blockTxs
	mainnet.Backend = flatBackend

	transfers := mainnet
	transfers.ContractCallFrac = 0

	return []spec{
		{name: "mainnet", cfg: mainnet, chunk: 5, pairSeconds: 1.8},
		{name: "transfers", cfg: transfers, chunk: 12, pairSeconds: 1.7},
	}
}

func specFor(name string) (spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	threads int
	outDir  string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 44, "run length, which sets the number of chunks per round")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass and reports per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for the span file")
	flag.Parse()

	s, err := specFor(*wl)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	var res *result
	if err == nil {
		res, err = run(s, options{seed: *seed, seconds: *seconds, trace: *trace == 1, threads: runtime.NumCPU(), outDir: *outDir}, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload and prints every metric by name with its unit.
func run(s spec, o options, w io.Writer) (*result, error) {
	if o.threads < 1 || o.threads > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing %d worker threads on %d CPUs: wall-clock parallelism needs a CPU per thread",
			o.threads, runtime.NumCPU())
	}
	cfg := s.cfg
	cfg.Seed = o.seed
	n := rounds
	if o.trace {
		// The traced run reports per-layer figures, which carry no bound:
		// one timed round gives the counters the public API returns.
		n = 1
	}
	chunks := s.chunksPerRound(o.seconds)
	printEnvelope(w, s, o, n, chunks)
	logf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }

	t, err := runRounds(cfg, n, chunks, s.chunk, o.threads, logf)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: t.blocks, Failed: t.failed, Metrics: map[string]metric{}}
	rep := reporter{w: w, m: res.Metrics}
	if !o.trace {
		reportEndToEnd(rep, t)
	} else {
		attempted, failed, err := runTraced(rep, s, cfg, o, t)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += failed
	}
	res.finish(w)
	return res, nil
}

// finish prints the failed blocks and sets correct: true only when none
// failed.
func (res *result) finish(w io.Writer) {
	fmt.Fprintf(w, "failed_blocks = %d / %d blocks\n", res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
}

// reporter prints each metric as it is recorded.
type reporter struct {
	w io.Writer
	m map[string]metric
}

// put records a metric. A value that is not a finite number comes from
// no samples, as when every run of a pipeline or layer failed; it is
// printed as n/a and left out of the result, whose failed count already
// makes it incorrect.
func (r reporter) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(r.w, "%-34s = n/a %s (no successful sample)\n", name, unit)
		return
	}
	r.m[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-34s = %.6g %s\n", name, v, unit)
}

func reportEndToEnd(r reporter, t *timed) {
	dm, se := median(t.dmvccTxS), median(t.serialTxS)
	r.put("dmvcc_tx_per_s", "tx/s", dm)
	r.put("serial_tx_per_s", "tx/s", se)
	r.put("dmvcc_block_ms_p50", "ms", percentile(t.blockMs, 0.50))
	q, ok := tailPercentile(len(t.blockMs))
	r.put("dmvcc_block_ms_tail", "ms", percentile(t.blockMs, q))
	note := ""
	if !ok {
		note = fmt.Sprintf(" (fewer than %d samples: no percentile above the median has %d beyond it)", 2*minBeyond, minBeyond)
	}
	fmt.Fprintf(r.w, "  tail percentile p%g over %d block samples%s\n", 100*q, len(t.blockMs), note)
	r.put("setup_s", "s", median(t.setupS))
	r.put("peak_rss_mb", "MB", peakRSSMB())
	fmt.Fprintf(r.w, "info: dmvcc/serial tx/s ratio %.3f (not gated)\n", dm/se)
}

// printEnvelope records what produced the figures.
func printEnvelope(w io.Writer, s spec, o options, rounds, chunks int) {
	env := map[string]any{
		"workload":   s.name,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    o.threads,
		"go":         runtime.Version(),
		"revision":   revision(),
		"seed":       o.seed,
		"backend":    backendName(s.cfg),
		"block_txs":  s.cfg.TxPerBlock,
		"blocks":     s.chunk * chunks * rounds,
		"rounds":     rounds,
		"chunk":      s.chunk,
		"trace":      o.trace,
	}
	data, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(w, "envelope: %s\n", data)
}

// revision is the VCS revision the binary was built from, when the build
// could stamp one.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			rev = st.Value
		case "vcs.modified":
			if st.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. Each run
// is one process for one workload, so no other workload's peak is in it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
