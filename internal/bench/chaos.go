package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/core"
	"dmvcc/internal/fault"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
	"dmvcc/internal/workload"
)

// ChaosSchema identifies the BENCH_chaos.json format. Bump on breaking
// changes.
const ChaosSchema = "dmvcc-bench/chaos/v1"

// ChaosConfig parameterizes the chaos soak: seeded blocks driven through a
// fault-injected DMVCC engine, each checked byte-identical against a twin
// serial world.
type ChaosConfig struct {
	// Blocks is the total soak length across all fault classes (the full
	// experiment runs >= 200; the CI smoke a handful).
	Blocks int
	// Txs is the block size.
	Txs int
	// Threads is the DMVCC worker parallelism.
	Threads int
	// Seed derives every per-class injector seed and the workload streams.
	Seed int64
}

// ChaosClass aggregates one fault class's slice of the soak.
type ChaosClass struct {
	Name string `json:"name"`
	// Backend names the chaos world's state backend ("trie", "flat",
	// "disk") — the serial twin always runs on the reference trie DB, so
	// root equality doubles as a cross-backend differential check.
	Backend string `json:"backend"`
	Blocks  int    `json:"blocks"`
	// RootMatches counts blocks whose committed root equalled the serial
	// twin's — the soak's correctness oracle; Validate requires it to equal
	// Blocks.
	RootMatches int `json:"root_matches"`
	// Degraded counts blocks that tripped the circuit breaker and fell back
	// to the serial baseline mid-flight.
	Degraded        int      `json:"degraded"`
	DegradeReasons  []string `json:"degrade_reasons,omitempty"`
	Aborts          int64    `json:"aborts"`
	Panics          int64    `json:"panics"`
	StallRecoveries int64    `json:"stall_recoveries"`
	MaxIncarnation  int64    `json:"max_incarnation"`
	// CommitRetries counts injected commit failures the harness retried
	// through.
	CommitRetries int `json:"commit_retries"`
	// FaultsFired is the per-injection-point fire count across the class.
	FaultsFired map[string]int64 `json:"faults_fired"`
}

// ChaosReport is the machine-readable soak report written as
// BENCH_chaos.json.
type ChaosReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	// GoMaxProcs records the parallelism the soak actually ran under — a
	// single-core box serializes the workers and hides real races, so a
	// clean single-core report must never be mistaken for (or silently
	// overwritten by) a multicore one; see WriteJSON.
	GoMaxProcs int          `json:"gomaxprocs"`
	Threads    int          `json:"threads"`
	Blocks     int          `json:"blocks"`
	Txs        int          `json:"txs"`
	Seed       int64        `json:"seed"`
	Classes    []ChaosClass `json:"classes"`

	RootMatches int `json:"root_matches"`
	Degraded    int `json:"degraded"`
}

// chaosClass is one fault-class recipe of the soak.
type chaosClass struct {
	name   string
	rates  map[fault.Point]float64
	delay  time.Duration
	limits map[fault.Point]int
	hard   core.Hardening
	// freshInjector arms a new injector per block (fire-limit recipes, whose
	// budgets are per-injector).
	freshInjector bool
	// wantDegraded marks recipes engineered to trip the breaker every block.
	wantDegraded bool
	// wantStalls marks recipes engineered to wedge the scheduler until the
	// watchdog recovers it.
	wantStalls bool
	// wantPanics marks recipes whose armed worker panics must fire: every
	// block in which the injector armed one must contain at least one.
	wantPanics bool
	// backend selects the chaos world's state backend: "" or "trie" is the
	// reference trie DB, "flat" the in-memory flat backend, "disk" the
	// disk-backed flat backend (whose KV layer the kv_* points can fail).
	// The serial twin always runs on the reference DB, so block-by-block
	// root equality is also a cross-backend differential oracle.
	backend string
}

// chaosClasses is the soak's fault matrix: every injection point the fault
// layer defines is exercised, plus a guaranteed breaker storm, a guaranteed
// watchdog stall, and an everything-at-once mix.
func chaosClasses() []chaosClass {
	return []chaosClass{
		{name: "panic",
			rates:      map[fault.Point]float64{fault.WorkerPanic: 0.25},
			wantPanics: true},
		{name: "delay",
			rates: map[fault.Point]float64{fault.ExecDelay: 0.3, fault.DelayEarlyPublish: 0.5},
			delay: 200 * time.Microsecond},
		{name: "csag-corruption",
			rates: map[fault.Point]float64{
				fault.CSAGDropRead: 0.3, fault.CSAGDropWrite: 0.3, fault.CSAGDropDelta: 0.3,
			}},
		{name: "snapshot-stale",
			rates: map[fault.Point]float64{fault.SnapshotStale: 0.15}},
		{name: "commit-failure",
			rates: map[fault.Point]float64{fault.CommitFail: 0.8, fault.CommitSlow: 0.5},
			delay: 100 * time.Microsecond},
		{name: "stall-watchdog",
			rates:         map[fault.Point]float64{fault.ExecDelay: 1.0},
			delay:         30 * time.Second,
			limits:        map[fault.Point]int{fault.ExecDelay: 16},
			hard:          core.Hardening{StallTimeout: 40 * time.Millisecond, StallRecoveries: 10},
			freshInjector: true,
			wantStalls:    true},
		{name: "abort-storm",
			rates:        map[fault.Point]float64{fault.SnapshotStale: 1.0},
			hard:         core.Hardening{MaxTxIncarnations: 4},
			wantDegraded: true,
			backend:      "flat"},
		// kv-faults is the disk-backend torture recipe: transient KV read
		// failures and slow log flushes while an engineered abort storm trips
		// the circuit breaker every block — the serial fallback must still
		// commit the reference root through a flaking disk layer.
		{name: "kv-faults",
			rates: map[fault.Point]float64{
				// Read-fail rate low enough that the store's 8-attempt retry
				// loop converges (0.08^8 per read), high enough to fire
				// constantly; every flush stalls so even a 1-block CI smoke
				// slice exercises the point.
				fault.KVReadFail: 0.08, fault.KVFlushSlow: 1.0,
				fault.SnapshotStale: 1.0,
			},
			delay:        100 * time.Microsecond,
			hard:         core.Hardening{MaxTxIncarnations: 4},
			wantDegraded: true,
			backend:      "disk"},
		{name: "mixed",
			rates: map[fault.Point]float64{
				fault.WorkerPanic: 0.1, fault.ExecDelay: 0.2,
				fault.CSAGDropRead: 0.2, fault.CSAGDropWrite: 0.2, fault.CSAGDropDelta: 0.2,
				fault.SnapshotStale: 0.1, fault.DelayEarlyPublish: 0.3,
				fault.CommitFail: 0.4, fault.CommitSlow: 0.3,
			},
			delay:   100 * time.Microsecond,
			backend: "flat"},
	}
}

// chaosBackend resolves a class's backend selector to a workload factory
// (nil = the reference trie DB) plus a cleanup for disk-backed stores.
func chaosBackend(sel string) (name string, factory func() (state.Backend, error), cleanup func(), err error) {
	switch sel {
	case "", "trie":
		return "trie", nil, func() {}, nil
	case "flat":
		return "flat", func() (state.Backend, error) { return state.NewFlat(state.FlatOpts{}) }, func() {}, nil
	case "disk":
		dir, err := os.MkdirTemp("", "dmvcc-chaos-kv-*")
		if err != nil {
			return "", nil, nil, err
		}
		return "disk", func() (state.Backend, error) { return state.NewFlat(state.FlatOpts{Dir: dir}) },
			func() { os.RemoveAll(dir) }, nil
	default:
		return "", nil, nil, fmt.Errorf("unknown chaos backend %q", sel)
	}
}

// chaosWorkload is the soak's traffic: the high-contention mainnet mix, so
// every scheduler mechanism is live while faults fire.
func chaosWorkload(cfg ChaosConfig) workload.Config {
	wl := workload.DefaultConfig().HighContention()
	wl.Users = 300
	wl.ERC20s = 16
	wl.AMMs = 8
	wl.NFTs = 4
	wl.ICOs = 2
	wl.TxPerBlock = cfg.Txs
	wl.Seed = cfg.Seed
	return wl
}

// commitWithRetries commits through injected commit faults, bounded by the
// engine's per-block failure cap plus slack. Returns the root and how many
// injected failures were retried.
func commitWithRetries(eng *chain.Engine, out *chain.ExecOut) (root types.Hash, retries int, err error) {
	for {
		r, cerr := eng.Commit(out.WriteSet)
		if cerr == nil {
			return r, retries, nil
		}
		if !errors.Is(cerr, fault.ErrInjectedCommit) {
			return r, retries, cerr
		}
		if retries++; retries > 8 {
			return r, retries, fmt.Errorf("injected commit failures did not converge: %w", cerr)
		}
	}
}

// RunChaos drives the soak: for every fault class, twin seeded worlds — one
// committed serially, one through a fault-injected DMVCC engine with
// hardening and forensics attached — asserting byte-identical roots block by
// block (including breaker-tripped blocks, whose serial fallback must heal
// them) and that every degradation reason lands in the post-mortem.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Blocks <= 0 {
		cfg.Blocks = 200
	}
	if cfg.Txs <= 0 {
		cfg.Txs = 96
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	classes := chaosClasses()
	rep := &ChaosReport{
		Schema:     ChaosSchema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Threads:    cfg.Threads,
		Blocks:     cfg.Blocks,
		Txs:        cfg.Txs,
		Seed:       cfg.Seed,
	}
	// Distribute the block budget evenly; the first classes absorb the
	// remainder so the total is exactly cfg.Blocks.
	per := cfg.Blocks / len(classes)
	extra := cfg.Blocks % len(classes)
	for ci, cl := range classes {
		blocks := per
		if ci < extra {
			blocks++
		}
		if blocks == 0 {
			continue
		}
		cc, err := runChaosClass(cfg, cl, int64(ci), blocks)
		if err != nil {
			return nil, fmt.Errorf("chaos class %s: %w", cl.name, err)
		}
		rep.Classes = append(rep.Classes, *cc)
		rep.RootMatches += cc.RootMatches
		rep.Degraded += cc.Degraded
	}
	return rep, nil
}

// runChaosClass soaks one fault class for the given number of blocks.
func runChaosClass(cfg ChaosConfig, cl chaosClass, classIdx int64, blocks int) (*ChaosClass, error) {
	wl := chaosWorkload(cfg)
	serialW, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	backendName, factory, cleanup, err := chaosBackend(cl.backend)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	chaosWl := wl
	chaosWl.Backend = factory
	chaosW, err := workload.BuildWorld(chaosWl)
	if err != nil {
		return nil, err
	}
	defer chaosW.DB.Close()
	if serialW.DB.Root() != chaosW.DB.Root() {
		return nil, fmt.Errorf("twin worlds diverge at genesis")
	}
	serialEng := chain.NewEngine(serialW.DB, serialW.Registry, 1)

	fx := telemetry.NewForensics()
	fx.Enable()
	newInjector := func(block int) *fault.Injector {
		return fault.New(fault.Config{
			// Distinct seed per class (and per block for fire-limit recipes)
			// keeps every decision reproducible from cfg.Seed alone.
			Seed:   cfg.Seed + 1000*classIdx + int64(block),
			Rates:  cl.rates,
			Delay:  cl.delay,
			Limits: cl.limits,
		})
	}
	injector := newInjector(0)
	chaosEng := chain.NewEngine(chaosW.DB, chaosW.Registry, cfg.Threads,
		chain.WithFaults(injector),
		chain.WithHardening(cl.hard),
		chain.WithForensics(fx))

	cc := &ChaosClass{Name: cl.name, Backend: backendName, Blocks: blocks, FaultsFired: map[string]int64{}}
	for b := 0; b < blocks; b++ {
		blockCtx := serialW.BlockContext()
		txs := serialW.NextBlock()
		chaosW.NextBlock() // keep the twin's traffic stream aligned
		_, serialRoot, err := serialEng.ExecuteAndCommit(chain.ModeSerial, blockCtx, txs)
		if err != nil {
			return nil, fmt.Errorf("block %d serial: %w", b, err)
		}

		if cl.freshInjector && b > 0 {
			injector = newInjector(b)
			chaosEng.SetFaults(injector)
		}
		armed := injector.Fired(fault.WorkerPanic)
		out, err := chaosEng.Execute(chain.ModeDMVCC, blockCtx, txs)
		if err != nil {
			return nil, fmt.Errorf("block %d dmvcc: %w", b, err)
		}
		if cl.wantPanics && injector.Fired(fault.WorkerPanic) > armed && out.Stats.Panics == 0 {
			return nil, fmt.Errorf("block %d (%s): %d worker panics armed, none fired (stats %+v)",
				b, cl.name, injector.Fired(fault.WorkerPanic)-armed, out.Stats)
		}
		root, retries, err := commitWithRetries(chaosEng, out)
		if err != nil {
			return nil, fmt.Errorf("block %d commit: %w", b, err)
		}
		cc.CommitRetries += retries
		if root == serialRoot {
			cc.RootMatches++
		} else {
			return nil, fmt.Errorf("block %d (%s): root %s != serial %s (stats %+v)",
				b, cl.name, root, serialRoot, out.Stats)
		}

		cc.Aborts += out.Stats.Aborts
		cc.Panics += out.Stats.Panics
		cc.StallRecoveries += out.Stats.StallRecoveries
		if out.Stats.MaxIncarnation > cc.MaxIncarnation {
			cc.MaxIncarnation = out.Stats.MaxIncarnation
		}
		if out.Stats.Degraded {
			cc.Degraded++
			if seen := cc.DegradeReasons; len(seen) == 0 || seen[len(seen)-1] != out.Stats.DegradeReason {
				cc.DegradeReasons = append(cc.DegradeReasons, out.Stats.DegradeReason)
			}
			// The degradation must be observable after the fact: the
			// forensics post-mortem carries the reason.
			if pm := fx.PostMortem(int64(blockCtx.Number)); pm == nil || pm.Degraded != out.Stats.DegradeReason {
				return nil, fmt.Errorf("block %d: post-mortem does not carry the degradation reason %q",
					b, out.Stats.DegradeReason)
			}
		} else if cl.wantDegraded {
			return nil, fmt.Errorf("block %d (%s): breaker storm did not degrade (stats %+v)",
				b, cl.name, out.Stats)
		}
		if cl.freshInjector {
			// Per-block injectors: fold this block's counts in before the
			// next block replaces the injector.
			for p, n := range injector.Counts() {
				cc.FaultsFired[p] += n
			}
		}
	}
	if !cl.freshInjector {
		// A long-lived injector reports cumulative counts; read them once.
		for p, n := range injector.Counts() {
			cc.FaultsFired[p] = n
		}
	}
	return cc, nil
}

// Validate checks the report's chaos contract: every block of every class
// committed the serial root; engineered storms degraded every block with a
// surfaced reason; engineered stalls recovered through the watchdog; panic
// and commit-failure classes actually fired; and the totals add up.
func (r *ChaosReport) Validate() error {
	if r.Schema != ChaosSchema {
		return fmt.Errorf("schema %q != %q", r.Schema, ChaosSchema)
	}
	if len(r.Classes) == 0 {
		return fmt.Errorf("no fault classes in report")
	}
	totalBlocks, totalMatches, totalDegraded := 0, 0, 0
	for _, c := range r.Classes {
		totalBlocks += c.Blocks
		totalMatches += c.RootMatches
		totalDegraded += c.Degraded
		if c.RootMatches != c.Blocks {
			return fmt.Errorf("class %s: %d of %d blocks matched the serial root",
				c.Name, c.RootMatches, c.Blocks)
		}
		switch c.Name {
		case "panic":
			if c.Panics == 0 {
				return fmt.Errorf("class panic: no panics contained")
			}
		case "abort-storm":
			if c.Degraded != c.Blocks {
				return fmt.Errorf("class abort-storm: %d of %d blocks degraded", c.Degraded, c.Blocks)
			}
			if len(c.DegradeReasons) == 0 {
				return fmt.Errorf("class abort-storm: no degradation reasons recorded")
			}
		case "stall-watchdog":
			if c.StallRecoveries == 0 {
				return fmt.Errorf("class stall-watchdog: watchdog never recovered a stall")
			}
		case "kv-faults":
			if c.Backend != "disk" {
				return fmt.Errorf("class kv-faults: ran on %q, want the disk backend", c.Backend)
			}
			if c.Degraded != c.Blocks {
				return fmt.Errorf("class kv-faults: %d of %d blocks degraded", c.Degraded, c.Blocks)
			}
			if c.FaultsFired["kv_read_fail"] == 0 || c.FaultsFired["kv_flush_slow"] == 0 {
				return fmt.Errorf("class kv-faults: kv points never fired (%v)", c.FaultsFired)
			}
		case "commit-failure":
			if c.CommitRetries == 0 {
				return fmt.Errorf("class commit-failure: no injected commit failures retried")
			}
		}
		fired := int64(0)
		for _, n := range c.FaultsFired {
			fired += n
		}
		if fired == 0 {
			return fmt.Errorf("class %s: no faults fired", c.Name)
		}
	}
	if totalBlocks != r.Blocks {
		return fmt.Errorf("classes cover %d of %d blocks", totalBlocks, r.Blocks)
	}
	if totalMatches != r.RootMatches || totalDegraded != r.Degraded {
		return fmt.Errorf("totals out of sync: %d/%d matches, %d/%d degraded",
			totalMatches, r.RootMatches, totalDegraded, r.Degraded)
	}
	return nil
}

// Render summarizes the soak for the terminal.
func (r *ChaosReport) Render() string {
	s := fmt.Sprintf("== chaos: %d seeded blocks x %d txs, %d threads (seed %d) ==\n",
		r.Blocks, r.Txs, r.Threads, r.Seed)
	s += fmt.Sprintf("%-16s %-7s %7s %7s %9s %8s %7s %8s %8s\n",
		"class", "backend", "blocks", "roots=", "degraded", "aborts", "panics", "stalls", "retries")
	for _, c := range r.Classes {
		s += fmt.Sprintf("%-16s %-7s %7d %7d %9d %8d %7d %8d %8d\n",
			c.Name, c.Backend, c.Blocks, c.RootMatches, c.Degraded, c.Aborts, c.Panics, c.StallRecoveries, c.CommitRetries)
	}
	s += fmt.Sprintf("serial-root equality: %d/%d blocks (degraded: %d)\n",
		r.RootMatches, r.Blocks, r.Degraded)
	return s
}

// WriteJSON persists the report, pretty-printed for reviewable diffs. It
// refuses to replace an existing parseable report from the other side of
// the single-core/multicore divide: a multicore soak exercises races a
// single-core run physically cannot (and vice versa for baselines pinned to
// one core), so the two are distinct artifacts — write them to distinct
// paths instead of clobbering one with the other.
func (r *ChaosReport) WriteJSON(path string) error {
	if old, err := os.ReadFile(path); err == nil {
		var prev ChaosReport
		if json.Unmarshal(old, &prev) == nil && prev.Schema == r.Schema {
			if (prev.GoMaxProcs <= 1) != (r.GoMaxProcs <= 1) {
				return fmt.Errorf(
					"chaos: refusing to overwrite %s (gomaxprocs %d) with a gomaxprocs %d report; use a separate output path",
					path, prev.GoMaxProcs, r.GoMaxProcs)
			}
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
