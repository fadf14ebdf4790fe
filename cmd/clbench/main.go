// Clbench measures the repository's benchmark suite and emits a JSON
// snapshot in the BENCH_baseline.json schema, so successive PRs have a
// perf trajectory to compare against.
//
// Usage:
//
//	clbench                 # micro + differential benchmarks
//	clbench -tables         # additionally regenerate the Table 1/3/4/5 campaigns
//	clbench -baseline BENCH_baseline.json   # print speedups vs a snapshot
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"clfuzz/internal/campaign"
	"clfuzz/internal/code"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/exhibits"
	"clfuzz/internal/generator"
	"clfuzz/internal/harness"
	"clfuzz/internal/oracle"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

type metrics struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// cacheStats snapshots one compile-cache level after the benchmark run,
// so cross-machine comparisons can see whether a perf difference is cache
// effectiveness or raw speed (a cold or thrashing cache shows up as a
// miss-heavy snapshot, not as an unexplained slowdown).
type cacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
}

type snapshot struct {
	Schema     string `json:"schema"`
	CapturedAt string `json:"captured_at,omitempty"`
	Commit     string `json:"commit,omitempty"`
	Go         string `json:"go"`
	CPU        string `json:"cpu,omitempty"`
	// CPUs is GOMAXPROCS at capture time: the parallel benchmarks
	// (BenchmarkExecuteParallel, the campaign tables) scale with it, so
	// snapshots from different machines are only comparable through it.
	CPUs int `json:"cpus,omitempty"`
	// GroupWorkers is the work-group fan-out budget the parallel execute
	// benchmark ran with (RunOptions.Workers).
	GroupWorkers int    `json:"group_workers,omitempty"`
	Notes        string `json:"notes,omitempty"`
	// Engine is the evaluation engine the run used (vm, tree, or auto),
	// with the engine counters accumulated over the whole run: launches
	// per engine, VM instructions dispatched, and how many distinct
	// back-end programs lowered to bytecode vs fell back to the tree
	// walker. Cross-machine comparisons must match on Engine first.
	Engine         string `json:"engine,omitempty"`
	VMLaunches     int64  `json:"vm_launches,omitempty"`
	TreeLaunches   int64  `json:"tree_launches,omitempty"`
	VMInstructions int64  `json:"vm_instructions,omitempty"`
	LoweredKernels uint64 `json:"lowered_kernels,omitempty"`
	LowerFallbacks uint64 `json:"lower_fallbacks,omitempty"`
	// FuelModel is the fuel accounting model launches resolved to (v1 =
	// per-instruction tree-exact, v2 = per-superinstruction on the fused
	// program), with per-model launch/dispatch counters and the fusion
	// pass's cumulative instruction reduction. Comparisons must match on
	// FuelModel as well as Engine: v2 dispatches fewer, fatter
	// instructions, so raw instruction counts are not comparable across
	// models.
	FuelModel         string `json:"fuel_model,omitempty"`
	FuelV1Launches    int64  `json:"fuel_v1_launches,omitempty"`
	FuelV1Instrs      int64  `json:"fuel_v1_instructions,omitempty"`
	FuelV2Launches    int64  `json:"fuel_v2_launches,omitempty"`
	FuelV2Instrs      int64  `json:"fuel_v2_superinstructions,omitempty"`
	FusedPrograms     int64  `json:"fused_programs,omitempty"`
	FusedInstrsBefore int64  `json:"fused_instrs_before,omitempty"`
	FusedInstrsAfter  int64  `json:"fused_instrs_after,omitempty"`
	// PoolHits and PoolMisses are the executor's launch-state pool
	// counters over the run: acquisitions served from the freelist vs by
	// constructing a fresh state. A steady-state run is almost all hits.
	PoolHits   uint64 `json:"pool_hits,omitempty"`
	PoolMisses uint64 `json:"pool_misses,omitempty"`
	// GC/allocator telemetry over the whole run (runtime.ReadMemStats):
	// cumulative allocated bytes and object count, completed GC cycles,
	// and total stop-the-world pause. The launch-state pool's effect
	// shows up here as a lower mallocs/NumGC slope at equal work.
	TotalAllocBytes uint64 `json:"total_alloc_bytes,omitempty"`
	Mallocs         uint64 `json:"mallocs,omitempty"`
	NumGC           uint32 `json:"num_gc,omitempty"`
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns,omitempty"`
	// OpStats is the -opstats section: opcode and adjacent-opcode-pair
	// dispatch histograms collected from the Execute benchmarks, sorted
	// by descending count (capped to the top entries). The pair table is
	// the data the fusion pass's pattern list was chosen from.
	OpStats *opStatsSection `json:"op_stats,omitempty"`
	// FrontCache and BackCache are the process-wide compile-cache
	// counters accumulated over the whole benchmark run: front-end
	// parses and finished back-end kernels reused vs compiled.
	FrontCache *cacheStats `json:"front_cache,omitempty"`
	BackCache  *cacheStats `json:"back_cache,omitempty"`
	// ResultCache is the campaign engine's cross-base result memo —
	// finished launch results keyed by (source hash, defect model,
	// argument digest) and reused across cases and campaigns.
	ResultCache *cacheStats `json:"result_cache,omitempty"`
	// ResultStore is the disk tier beneath the result cache (-store):
	// campaign-verified disk hits/misses plus the store's own write and
	// corruption counters. Absent when no store directory is configured.
	ResultStore *storeStats `json:"result_store,omitempty"`
	// CacheSkipNonFlat/Race/CoverMismatch are the campaign engine's
	// per-reason result-cache skip counters: launches a wired cache could
	// not serve because of cell-backed buffers, the race checker, or a
	// result memoized under the opposite coverage population.
	CacheSkipNonFlat       int64 `json:"cache_skip_non_flat,omitempty"`
	CacheSkipRace          int64 `json:"cache_skip_race,omitempty"`
	CacheSkipCoverMismatch int64 `json:"cache_skip_cover_mismatch,omitempty"`
	// CampaignCases and CampaignLaunches are the campaign engine's
	// cumulative throughput counters over the run: cases (matrices or
	// single launches) started, and representative launches actually
	// executed (model-dedup followers and result-cache hits are free).
	CampaignCases    int64 `json:"campaign_cases,omitempty"`
	CampaignLaunches int64 `json:"campaign_launches,omitempty"`
	// CasesPerSec is campaign throughput over the whole run: cases
	// completed per wall-clock second (compare only at equal CPUs,
	// Engine and scale).
	CasesPerSec float64 `json:"cases_per_sec,omitempty"`
	// Fuzz is the -fuzz section: the coverage-guided campaign's
	// coverage-over-time series against the equal-budget pure-random
	// baseline at the same seed (both deterministic, so the series are
	// machine-independent facts, not measurements).
	Fuzz       *fuzzStats         `json:"fuzz,omitempty"`
	Benchmarks map[string]metrics `json:"benchmarks"`
}

// storeStats is the -store snapshot section.
type storeStats struct {
	Dir       string `json:"dir"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Corrupt   uint64 `json:"corrupt,omitempty"`
	Writes    uint64 `json:"writes"`
	WriteErrs uint64 `json:"write_errs,omitempty"`
}

// opStatsSection is the -opstats snapshot section.
type opStatsSection struct {
	Ops   []exec.OpCount   `json:"ops"`
	Pairs []exec.PairCount `json:"pairs"`
}

// fuzzStats summarizes one guided-vs-random fuzz comparison.
type fuzzStats struct {
	Chains        int   `json:"chains"`
	StepsPerChain int   `json:"steps_per_chain"`
	Seed          int64 `json:"seed"`
	// Edges and RandomEdges are the distinct VM edges reached by the
	// coverage-guided campaign and the equal-budget pure-random baseline.
	Edges       int `json:"edges"`
	RandomEdges int `json:"random_edges"`
	Corpus      int `json:"corpus"`
	Mismatches  int `json:"mismatches"`
	// Curve and RandomCurve are the cumulative distinct-edge counts after
	// each case, in case order — the coverage-over-time series.
	Curve       []int `json:"curve"`
	RandomCurve []int `json:"random_curve"`
	// Defect-trigger-site hit totals over the guided campaign.
	DerefStoreHits uint64 `json:"deref_store_hits"`
	ArrowStoreHits uint64 `json:"arrow_store_hits"`
	DeadLoopHits   uint64 `json:"dead_loop_hits"`
}

func measure(name string, out map[string]metrics, fn func(b *testing.B)) {
	r := testing.Benchmark(fn)
	out[name] = metrics{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	fmt.Fprintf(os.Stderr, "%-28s %14d ns/op %12d B/op %10d allocs/op\n",
		name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
}

func main() {
	tables := flag.Bool("tables", false, "also regenerate the Table 1/3/4/5 campaign benchmarks (slow)")
	fuzzFlag := flag.Bool("fuzz", false,
		"also run the coverage-guided fuzz campaign and its equal-budget pure-random baseline, recording the coverage-over-time series")
	fuzzScale := flag.Int("fuzzscale", 15, "fuzz steps per chain for -fuzz")
	scale := flag.Int("scale", 6, "campaign scale for the table benchmarks")
	baselinePath := flag.String("baseline", "", "optional snapshot to compare against (prints speedups to stderr)")
	engineFlag := flag.String("engine", "auto", "evaluation engine for every launch: vm, tree, or auto")
	fuelFlag := flag.String("fuel", "auto",
		"fuel model for every launch: v1 (per-instruction), v2 (per-superinstruction on the fused program), or auto (CLFUZZ_FUEL or v1)")
	storeDirFlag := flag.String("store", "",
		"disk-backed result store directory (default $CLFUZZ_STORE; empty disables); the snapshot records its hit/miss/write counters")
	opStatsFlag := flag.Bool("opstats", false,
		"collect opcode and opcode-pair dispatch histograms from the Execute benchmarks and record them in the snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()
	engine, err := exec.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	device.DefaultEngine = engine
	fuel, err := exec.ParseFuelModel(*fuelFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if fuel != exec.FuelAuto {
		device.DefaultFuelModel = fuel
	}
	diskStore, err := campaign.EnableStore(*storeDirFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	var ops *exec.OpStats
	if *opStatsFlag {
		ops = new(exec.OpStats)
	}

	bm := map[string]metrics{}
	started := time.Now()

	k := generator.Generate(generator.Options{Mode: generator.ModeAll, Seed: 5, MaxTotalThreads: 64})
	ref := device.Reference()

	measure("BenchmarkParse", bm, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parser.Parse(k.Src); err != nil {
				b.Fatal(err)
			}
		}
	})
	measure("BenchmarkSema", bm, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := parser.Parse(k.Src)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sema.Check(prog, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	measure("BenchmarkCompile", bm, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cr := ref.Compile(k.Src, true)
			if cr.Outcome != device.OK {
				b.Fatal(cr.Msg)
			}
		}
	})
	measure("BenchmarkExecute", bm, func(b *testing.B) {
		cr := ref.Compile(k.Src, true)
		if cr.Outcome != device.OK {
			b.Fatal(cr.Msg)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args, result := k.Buffers()
			rr := cr.Kernel.Run(k.ND, args, result, device.RunOptions{OpStats: ops})
			if rr.Outcome != device.OK {
				b.Fatal(rr.Msg)
			}
		}
	})
	measure("BenchmarkExecuteSteadyState", bm, func(b *testing.B) {
		// Steady state: the launch-state pool is warmed before the timer
		// starts, so every measured iteration recycles a pooled state —
		// the regime a long campaign runs in. Compare against
		// BenchmarkExecute (which includes pool warm-up in its first
		// iteration) to see the recycling win in isolation.
		cr := ref.Compile(k.Src, true)
		if cr.Outcome != device.OK {
			b.Fatal(cr.Msg)
		}
		args, result := k.Buffers()
		if rr := cr.Kernel.Run(k.ND, args, result, device.RunOptions{OpStats: ops}); rr.Outcome != device.OK {
			b.Fatal(rr.Msg)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args, result := k.Buffers()
			rr := cr.Kernel.Run(k.ND, args, result, device.RunOptions{OpStats: ops})
			if rr.Outcome != device.OK {
				b.Fatal(rr.Msg)
			}
		}
	})
	groupWorkers := runtime.GOMAXPROCS(0)
	measure("BenchmarkExecuteParallel", bm, func(b *testing.B) {
		cr := ref.Compile(k.Src, true)
		if cr.Outcome != device.OK {
			b.Fatal(cr.Msg)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			args, result := k.Buffers()
			rr := cr.Kernel.Run(k.ND, args, result, device.RunOptions{Workers: groupWorkers, OpStats: ops})
			if rr.Outcome != device.OK {
				b.Fatal(rr.Msg)
			}
		}
	})
	measure("BenchmarkDifferentialTest", bm, func(b *testing.B) {
		cfgs := harness.AboveThresholdConfigs()
		for i := 0; i < b.N; i++ {
			dk := generator.Generate(generator.Options{Mode: generator.ModeBasic, Seed: int64(1000 + i), MaxTotalThreads: 32})
			c := harness.CaseFromKernel(dk, "bench")
			rs := harness.RunEverywhere(cfgs, c, 0)
			_ = oracle.WrongCode(rs)
		}
	})
	measure("BenchmarkFigure1", bm, func(b *testing.B) { benchFigure(b, 1) })
	measure("BenchmarkFigure2", bm, func(b *testing.B) { benchFigure(b, 2) })

	if *tables {
		// The table benchmarks drive harness.RenderCampaign — the same
		// ctx-first path the cltables CLI and the fleet supervisor render
		// through — so the perf trajectory tracks what production runs.
		benchTable := func(p harness.Params) func(b *testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := harness.RenderCampaign(context.Background(), p); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		measure("BenchmarkTable1", bm, benchTable(harness.Params{Table: 1, Scale: *scale, Seed: 7, Threads: 48, Fuel: harness.DefaultFuelParam()}))
		measure("BenchmarkTable3", bm, benchTable(harness.Params{Table: 3, Scale: 2, Seed: 11, Threads: 48, Fuel: harness.DefaultFuelParam()}))
		measure("BenchmarkTable4", bm, benchTable(harness.Params{Table: 4, Scale: *scale, Seed: 13, Threads: 48, Fuel: harness.DefaultFuelParam()}))
		measure("BenchmarkTable5", bm, benchTable(harness.Params{Table: 5, Scale: *scale/2 + 1, Seed: 17, Threads: 48, Fuel: harness.DefaultFuelParam()}))
	}

	var fuzz *fuzzStats
	if *fuzzFlag {
		fp := harness.Params{Table: harness.FuzzTable, Scale: *fuzzScale, Seed: 23, Threads: 48, Chains: 4, Fuel: harness.DefaultFuelParam()}
		guided, err := harness.RunFuzzFold(context.Background(), fp)
		if err == nil {
			rp := fp
			rp.Fresh = true
			var random *harness.FuzzFold
			random, err = harness.RunFuzzFold(context.Background(), rp)
			if err == nil {
				sites := guided.Cover.SiteHits()
				fuzz = &fuzzStats{
					Chains:         4,
					StepsPerChain:  *fuzzScale,
					Seed:           fp.Seed,
					Edges:          guided.Cover.Count(),
					RandomEdges:    random.Cover.Count(),
					Corpus:         guided.CorpusTotal(),
					Mismatches:     guided.Mismatches,
					Curve:          guided.Curve,
					RandomCurve:    random.Curve,
					DerefStoreHits: sites[exec.CoverSiteDerefStore],
					ArrowStoreHits: sites[exec.CoverSiteArrowStore],
					DeadLoopHits:   sites[exec.CoverSiteDeadLoop],
				}
				fmt.Fprintf(os.Stderr, "%-28s %14d edges %12d random-edges %10d corpus\n",
					"Fuzz", fuzz.Edges, fuzz.RandomEdges, fuzz.Corpus)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz:", err)
			os.Exit(1)
		}
	}

	elapsed := time.Since(started).Seconds()
	fcHits, fcMisses, fcSize := device.DefaultFrontCache.Stats()
	bcHits, bcMisses, bcSize := device.DefaultBackCache.Stats()
	rcHits, rcMisses, rcSize := campaign.Default.Results.Stats()
	skipNonFlat, skipRace, skipCover := campaign.Default.CacheSkips()
	var storeSection *storeStats
	if diskStore != nil {
		dh, dm := campaign.Default.Results.DiskStats()
		st := diskStore.Stats()
		storeSection = &storeStats{Dir: diskStore.Dir(), Hits: dh, Misses: dm,
			Corrupt: st.Corrupt, Writes: st.Writes, WriteErrs: st.WriteErrs}
		fmt.Fprintf(os.Stderr, "%-28s %14d hits %12d misses %10d writes\n", "ResultStore", dh, dm, st.Writes)
	}
	cases, launches := campaign.Default.Counters()
	casesPerSec := 0.0
	if elapsed > 0 {
		casesPerSec = float64(cases) / elapsed
	}
	lowered, fallbacks := device.LowerStats()
	vmRuns, treeRuns, vmInstrs := exec.EngineCounters()
	v1Runs, v1Instrs, v2Runs, v2Instrs := exec.FuelCounters()
	fusedProgs, fusedBefore, fusedAfter := code.FuseStats()
	poolHits, poolMisses := exec.DefaultPool().Counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	effFuel := fuel
	if effFuel == exec.FuelAuto {
		effFuel = device.DefaultFuelModel
	}
	fmt.Fprintf(os.Stderr, "%-28s %14d hits %12d misses %10d entries\n", "FrontCache", fcHits, fcMisses, fcSize)
	fmt.Fprintf(os.Stderr, "%-28s %14d hits %12d misses %10d entries\n", "BackCache", bcHits, bcMisses, bcSize)
	fmt.Fprintf(os.Stderr, "%-28s %14d hits %12d misses %10d entries\n", "ResultCache", rcHits, rcMisses, rcSize)
	fmt.Fprintf(os.Stderr, "%-28s %14d cases %12d launches %10.1f cases/s\n", "Campaign", cases, launches, casesPerSec)
	fmt.Fprintf(os.Stderr, "%-28s %14d lowered %12d fallbacks\n", "Lowering", lowered, fallbacks)
	fmt.Fprintf(os.Stderr, "%-28s %14d vm %12d tree %10d vm-instrs\n", "Engine", vmRuns, treeRuns, vmInstrs)
	fmt.Fprintf(os.Stderr, "%-28s %14d v1-runs %12d v2-runs %10d v2-instrs\n", "Fuel", v1Runs, v2Runs, v2Instrs)
	fmt.Fprintf(os.Stderr, "%-28s %14d fused %12d before %10d after\n", "Fusion", fusedProgs, fusedBefore, fusedAfter)
	fmt.Fprintf(os.Stderr, "%-28s %14d hits %12d misses\n", "LaunchPool", poolHits, poolMisses)
	fmt.Fprintf(os.Stderr, "%-28s %14d mallocs %12d gc-cycles %10d pause-ns\n", "GC", ms.Mallocs, ms.NumGC, ms.PauseTotalNs)
	var opSection *opStatsSection
	if ops != nil {
		const topN = 32
		oc, pc := ops.Ops(), ops.Pairs()
		if len(oc) > topN {
			oc = oc[:topN]
		}
		if len(pc) > topN {
			pc = pc[:topN]
		}
		opSection = &opStatsSection{Ops: oc, Pairs: pc}
		for i, o := range oc {
			if i >= 8 {
				break
			}
			fmt.Fprintf(os.Stderr, "%-28s %14d dispatches\n", "Op:"+o.Op, o.Count)
		}
	}
	snap := snapshot{
		Schema:                 "clfuzz-bench/v1",
		Go:                     runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:                   runtime.GOMAXPROCS(0),
		GroupWorkers:           groupWorkers,
		Engine:                 engine.String(),
		VMLaunches:             vmRuns,
		TreeLaunches:           treeRuns,
		VMInstructions:         vmInstrs,
		LoweredKernels:         lowered,
		LowerFallbacks:         fallbacks,
		FuelModel:              effFuel.String(),
		FuelV1Launches:         v1Runs,
		FuelV1Instrs:           v1Instrs,
		FuelV2Launches:         v2Runs,
		FuelV2Instrs:           v2Instrs,
		FusedPrograms:          fusedProgs,
		FusedInstrsBefore:      fusedBefore,
		FusedInstrsAfter:       fusedAfter,
		PoolHits:               poolHits,
		PoolMisses:             poolMisses,
		TotalAllocBytes:        ms.TotalAlloc,
		Mallocs:                ms.Mallocs,
		NumGC:                  ms.NumGC,
		GCPauseTotalNs:         ms.PauseTotalNs,
		OpStats:                opSection,
		FrontCache:             &cacheStats{Hits: fcHits, Misses: fcMisses, Size: fcSize},
		BackCache:              &cacheStats{Hits: bcHits, Misses: bcMisses, Size: bcSize},
		ResultCache:            &cacheStats{Hits: rcHits, Misses: rcMisses, Size: rcSize},
		ResultStore:            storeSection,
		CacheSkipNonFlat:       skipNonFlat,
		CacheSkipRace:          skipRace,
		CacheSkipCoverMismatch: skipCover,
		CampaignCases:          cases,
		CampaignLaunches:       launches,
		CasesPerSec:            casesPerSec,
		Fuzz:                   fuzz,
		Benchmarks:             bm,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(1)
	}

	if *baselinePath != "" {
		compare(*baselinePath, bm)
	}
}

func benchFigure(b *testing.B, fig int) {
	for i := 0; i < b.N; i++ {
		for _, e := range exhibits.All() {
			if e.Figure != fig {
				continue
			}
			if err := exhibits.Verify(e); err != nil {
				b.Fatalf("exhibit %s: %v", e.ID, err)
			}
		}
	}
}

func compare(path string, now map[string]metrics) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		os.Exit(1)
	}
	var base snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\nvs %s:\n", path)
	for name, cur := range now {
		old, ok := base.Benchmarks[name]
		if !ok || cur.NsPerOp == 0 || cur.AllocsPerOp == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "%-28s %6.2fx ns/op  %6.2fx allocs/op\n",
			name,
			float64(old.NsPerOp)/float64(cur.NsPerOp),
			float64(old.AllocsPerOp)/float64(cur.AllocsPerOp))
	}
}
