package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"clfuzz/internal/ast"
	"clfuzz/internal/campaign"
	"clfuzz/internal/code"
	"clfuzz/internal/corpus"
	"clfuzz/internal/device"
	"clfuzz/internal/emi"
	"clfuzz/internal/exec"
	"clfuzz/internal/generator"
	"clfuzz/internal/harness"
	"clfuzz/internal/opt"
	"clfuzz/internal/oracle"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
	"clfuzz/internal/store"
)

// The traced run replays one round's campaign from this file, calling
// each layer's public functions itself and timing every call as a span.
// It runs on one goroutine, so spans nest strictly and layer self times
// plus the unattributed remainder add up to the traced wall time. Its
// records are checked against the same reference as the measured run's,
// which pins the replica to the program's campaign path.
//
// Where the program memoizes finished launches (campaign.ResultCache),
// Table 4 and the fuzzing campaign take the launch chain apart: parse
// (device.FrontCache.Get), back end (Config.CompileFrontEnd) and launch
// (Kernel.Run), with a benchmark-side memo keyed like the result cache
// (canonical source, launch geometry, defect model, coverage). Table 5's
// warm rerun keeps the program's own result tier — the store read path
// is what it measures — so it calls campaign.Engine.RunMatrix after
// warming the parse and back-end caches through their public functions.
//
// Per-span timing needs the inside of calls the program makes in one
// piece (a chain step, a matrix, a table record), so those bodies are
// copied here. Each copy names the program function it mirrors: a change
// there must be made here too. Until it is, the traced run's records
// differ from the reference and count as failed;
// TestTracedReplicaMatchesReference checks the Table 4 and fuzzing
// replicas without a full run.

// TraceOut is a traced worker's report.
type TraceOut struct {
	// WallS is the traced wall window; replay spans fall after it.
	WallS  float64            `json:"wall_s"`
	Spans  []Span             `json:"spans"`
	Counts map[string]float64 `json:"counts"`
}

type memoKey struct {
	canon string
	nd    exec.NDRange
	mk    campaign.ModelKey
	cover bool
}

type memoEntry struct {
	r     campaign.UnitResult
	edges []uint32
	sites [exec.CoverNumSites]uint64
}

type backKey struct {
	hash uint64
	mk   campaign.ModelKey
}

type backInput struct {
	fe  *device.FrontEnd
	lvl device.Level
	opt bool
}

type tracedRun struct {
	tr       *Tracer
	counts   map[string]float64
	memo     map[memoKey]memoEntry
	backs    map[backKey]backInput
	backList []backKey
	baseFuel int64
}

func runTraced(w Workload, p harness.Params, res *WorkerOut) (*TraceOut, error) {
	d := &tracedRun{
		tr:       NewTracer(),
		counts:   map[string]float64{},
		memo:     map[memoKey]memoEntry{},
		backs:    map[backKey]backInput{},
		baseFuel: p.BaseFuel,
	}
	var recs []json.RawMessage
	var err error
	switch w.Table {
	case 4:
		recs, err = d.table4(p)
	case 5:
		recs, err = d.table5(p)
	case harness.FuzzTable:
		recs, err = d.fuzz(p)
	default:
		err = fmt.Errorf("no traced replica for table %d", w.Table)
	}
	if err != nil {
		return nil, err
	}
	d.tr.Case = -1
	sf := &harness.ShardFile{Schema: harness.ShardSchema, Params: p, Cases: len(recs), Of: 1}
	for i, r := range recs {
		sf.Records = append(sf.Records, harness.ShardRecord{Index: i, Data: r})
	}
	d.tr.Do("harness", "harness.MergeShards", func() { _, err = harness.MergeShards([]*harness.ShardFile{sf}) })
	if err != nil {
		return nil, err
	}
	res.Cases, res.Records = len(recs), recs
	out := &TraceOut{WallS: float64(d.tr.now()) / 1e9, Counts: d.counts}

	d.tr.Replaying()
	d.replayBackEnds()
	if dir := campaign.Default.Results.Disk(); dir != nil {
		if err := d.replayStore(dir.Dir()); err != nil {
			return nil, err
		}
	}
	out.Spans = d.tr.Spans
	return out, nil
}

func (d *tracedRun) add(name string, v float64) { d.counts[name] += v }

// encode marshals one case record: the harness's record encoding.
func (d *tracedRun) encode(rec any) json.RawMessage {
	var b []byte
	d.tr.Do("harness", "record encoding", func() { b, _ = json.Marshal(rec) })
	return b
}

// front parses src through the program's front-end cache.
func (d *tracedRun) front(src string) *device.FrontEnd {
	h0, _, _ := device.DefaultFrontCache.Stats()
	var fe *device.FrontEnd
	d.tr.Do("parser", "FrontCache.Get", func() { fe = device.DefaultFrontCache.Get(src) })
	h1, _, _ := device.DefaultFrontCache.Stats()
	d.add("parser.gets", 1)
	d.add("parser.hits", float64(h1-h0))
	d.add("parser.bytes", float64(len(src)))
	return fe
}

// compile runs the per-configuration back end and notes its input for
// the sema/opt/code replay.
func (d *tracedRun) compile(cfg *device.Config, opt bool, fe *device.FrontEnd) device.CompileResult {
	h0, m0, _ := device.DefaultBackCache.Stats()
	var cr device.CompileResult
	d.tr.Do("device", "Config.CompileFrontEnd", func() { cr = cfg.CompileFrontEnd(fe, opt) })
	h1, m1, _ := device.DefaultBackCache.Stats()
	d.add("device.back_hits", float64(h1-h0))
	d.add("device.back_misses", float64(m1-m0))
	if fe.Err == nil {
		k := backKey{fe.Hash, campaign.ModelKeyOf(cfg, opt)}
		if _, ok := d.backs[k]; !ok {
			d.backs[k] = backInput{fe, cfg.Level(opt), opt && !cfg.NoOptimizer}
			d.backList = append(d.backList, k)
		}
	}
	return cr
}

// unit is one launch unit — back end, memo probe, launch — the chain
// campaign.Engine runs per representative unit. Mirrors
// (*campaign.Engine).runUnit (internal/campaign/campaign.go).
func (d *tracedRun) unit(cfg *device.Config, opt bool, fe *device.FrontEnd, nd exec.NDRange, buffers func() (exec.Args, *exec.Buffer), workers int, cover *exec.CoverMap) campaign.UnitResult {
	key := campaign.Key(cfg, opt)
	d.add("campaign.units", 1)
	cr := d.compile(cfg, opt, fe)
	if cr.Outcome != device.OK {
		return campaign.UnitResult{Key: key, Outcome: cr.Outcome, Msg: cr.Msg, Compile: true}
	}
	mk := memoKey{fe.Canon, nd, campaign.ModelKeyOf(cfg, opt), cover != nil}
	if e, ok := d.memo[mk]; ok {
		d.add("campaign.memo_hits", 1)
		if cover != nil {
			cover.AddEdges(e.edges)
			cover.AddSites(e.sites)
		}
		r := e.r
		r.Key = key
		return r
	}
	args, result := buffers()
	var launchCov *exec.CoverMap
	if cover != nil {
		launchCov = new(exec.CoverMap)
	}
	var rr device.RunResult
	d.tr.Do("exec", "Kernel.Run", func() {
		rr = cr.Kernel.Run(nd, args, result, device.RunOptions{BaseFuel: d.baseFuel, Workers: workers, Cover: launchCov})
	})
	if rr.Outcome == device.Timeout {
		s := d.tr.Spans[len(d.tr.Spans)-1]
		d.add("exec.timeouts", 1)
		d.add("exec.timeout_s", float64(s.End-s.Start)/1e9)
	}
	r := campaign.UnitResult{Key: key, Outcome: rr.Outcome, Msg: rr.Msg, Output: rr.Output}
	e := memoEntry{r: r}
	if launchCov != nil {
		e.edges, e.sites = launchCov.Edges(), launchCov.SiteHits()
		cover.AddEdges(e.edges)
		cover.AddSites(e.sites)
	}
	d.memo[mk] = e
	return r
}

// matrix runs one source on every configuration at both levels: one
// representative per defect model, results copied to the followers.
// Mirrors (*campaign.Engine).RunMatrix (internal/campaign/campaign.go).
func (d *tracedRun) matrix(cfgs []*device.Config, k *generator.Kernel) []campaign.UnitResult {
	type cell struct {
		cfg *device.Config
		opt bool
	}
	var units []cell
	for _, cfg := range cfgs {
		units = append(units, cell{cfg, false}, cell{cfg, true})
	}
	results := make([]campaign.UnitResult, len(units))
	id := d.tr.Begin("campaign", "RunMatrix replica")
	fe := d.front(k.Src)
	reps, follower := campaign.GroupUnits(len(units), func(i int) campaign.ModelKey {
		return campaign.ModelKeyOf(units[i].cfg, units[i].opt)
	})
	for _, i := range reps {
		results[i] = d.unit(units[i].cfg, units[i].opt, fe, k.ND, k.Buffers, campaign.LaunchWorkers(1), nil)
	}
	for i, r := range follower {
		cp := results[r]
		cp.Key = campaign.Key(units[i].cfg, units[i].opt)
		results[i] = cp
		d.add("campaign.units", 1)
	}
	d.tr.End(id)
	return results
}

func (d *tracedRun) generate(o generator.Options) *generator.Kernel {
	var k *generator.Kernel
	d.tr.Do("generator", "generator.Generate", func() { k = generator.Generate(o) })
	d.add("generator.generated", 1)
	return k
}

// t1Result and t4Record mirror the harness's Table 4 record encoding:
// t1Result in internal/harness/table1.go, t4Record in
// internal/harness/table4.go.
type t1Result struct {
	Key       string   `json:"key"`
	Outcome   int      `json:"outcome"`
	Output    []uint64 `json:"output,omitempty"`
	CompileTO bool     `json:"compile_to,omitempty"`
}

type t4Record struct {
	Results []t1Result `json:"results"`
}

func (d *tracedRun) table4(p harness.Params) ([]json.RawMessage, error) {
	cfgs := harness.AboveThresholdConfigs()
	gen1 := device.ByID(1)
	kernels := make([][]*generator.Kernel, len(generator.Modes))
	for mi, mode := range generator.Modes {
		// The acceptance filter: candidates in batches of at least four,
		// each run on configuration 1+, accepted in candidate order.
		// Mirrors harness.generateAccepted (internal/harness/harness.go).
		next := p.Seed + int64(mi)*1000003
		for len(kernels[mi]) < p.Scale {
			batch := p.Scale - len(kernels[mi])
			if batch < 4 {
				batch = 4
			}
			for i := 0; i < batch; i++ {
				k := d.generate(generator.Options{Mode: mode, Seed: next, MaxTotalThreads: p.Threads})
				next++
				r := d.unit(gen1, true, d.front(k.Src), k.ND, k.Buffers, campaign.LaunchWorkers(1), nil)
				if r.Outcome == device.OK && len(kernels[mi]) < p.Scale {
					kernels[mi] = append(kernels[mi], k)
					d.add("generator.accepted", 1)
				}
			}
		}
	}
	n := len(generator.Modes) * p.Scale
	recs := make([]json.RawMessage, n)
	for i := 0; i < n; i++ {
		d.tr.Case = i
		// The record mirrors harness.table4Record (internal/harness/table4.go).
		rs := d.matrix(cfgs, kernels[i/p.Scale][i%p.Scale])
		ors := make([]oracle.Result, len(rs))
		for j, r := range rs {
			ors[j] = r.AsOracle()
		}
		d.tr.Do("oracle", "oracle.WrongCode", func() { oracle.WrongCode(ors) })
		rec := t4Record{Results: make([]t1Result, len(rs))}
		for j, r := range rs {
			rec.Results[j] = t1Result{Key: r.Key, Outcome: int(r.Outcome), Output: r.Output}
		}
		recs[i] = d.encode(rec)
	}
	return recs, nil
}

// t5Record mirrors the harness's Table 5 record encoding (t5Record in
// internal/harness/table5.go).
type t5Record struct {
	PerKey  map[string]harness.Table5Stats `json:"per_key"`
	Pruning []int                          `json:"pruning"`
}

// runCase is one single launch through the program's engine, with the
// parse and back end warmed through their public functions first so
// that the engine's own calls to them hit.
func (d *tracedRun) runCase(eng *campaign.Engine, cfg *device.Config, opt bool, c campaign.Case) campaign.UnitResult {
	d.compile(cfg, opt, d.front(c.Src))
	d.add("campaign.units", 1)
	var r campaign.UnitResult
	d.tr.Do("campaign", "Engine.RunCase", func() {
		r = eng.RunCase(cfg, opt, c, campaign.LaunchOptions{BaseFuel: d.baseFuel, Workers: campaign.LaunchWorkers(1)})
	})
	return r
}

func (d *tracedRun) table5(p harness.Params) ([]json.RawMessage, error) {
	eng := campaign.Default
	cfgs := harness.AboveThresholdConfigs()
	var keys []string
	for _, cfg := range cfgs {
		keys = append(keys, campaign.Key(cfg, false), campaign.Key(cfg, true))
	}
	gen1 := device.ByID(1)
	// Base selection: ALL-mode candidates with 1-5 EMI blocks, accepted
	// on configuration 1+ and kept only when inverting the dead array
	// changes the result. Mirrors harness.generateEMIBases
	// (internal/harness/table5.go).
	var bases []*generator.Kernel
	next := p.Seed
	for len(bases) < p.Scale {
		batch := p.Scale - len(bases) + 4
		for i := 0; i < batch; i++ {
			k := d.generate(generator.Options{
				Mode: generator.ModeAll, Seed: next, MaxTotalThreads: p.Threads, EMIBlocks: 1 + int(next%5),
			})
			next++
			rr := d.runCase(eng, gen1, true, harness.CaseFromKernel(k, ""))
			if rr.Outcome != device.OK {
				continue
			}
			ir := d.runCase(eng, gen1, true, campaign.Case{Src: k.Src, ND: k.ND, Buffers: k.InvertedDeadBuffers})
			keep := ir.Outcome != device.OK
			if !keep {
				d.tr.Do("oracle", "oracle.Equal", func() { keep = !oracle.Equal(rr.Output, ir.Output) })
			}
			if keep && len(bases) < p.Scale {
				bases = append(bases, k)
				d.add("generator.accepted", 1)
			}
		}
	}
	recs := make([]json.RawMessage, len(bases))
	for i, base := range bases {
		d.tr.Case = i
		rec, err := d.t5Base(eng, cfgs, keys, base)
		if err != nil {
			return nil, err
		}
		recs[i] = d.encode(rec)
	}
	return recs, nil
}

// t5Base is one base's record. Mirrors harness.table5Record
// (internal/harness/table5.go): pruning, the variant matrix and the
// per-key classification.
func (d *tracedRun) t5Base(eng *campaign.Engine, cfgs []*device.Config, keys []string, base *generator.Kernel) (t5Record, error) {
	grid := emi.Grid()
	rec := t5Record{PerKey: map[string]harness.Table5Stats{}, Pruning: make([]int, len(grid))}
	var prog *ast.Program
	var err error
	d.tr.Do("parser", "parser.Parse", func() { prog, err = parser.Parse(base.Src) })
	if err != nil {
		return rec, err
	}
	variants := make([]string, len(grid))
	for gi, po := range grid {
		po.Seed = base.Seed*41 + int64(gi)
		var vp *ast.Program
		d.tr.Do("emi", "emi.Prune", func() { vp, err = emi.Prune(prog, po) })
		if err == nil {
			d.tr.Do("emi", "ast.Print", func() { variants[gi] = ast.Print(vp) })
		}
	}
	fes := make([]*device.FrontEnd, len(variants))
	canon := map[string]bool{}
	for i, v := range variants {
		fes[i] = d.front(v)
		canon[fes[i].Canon] = true
	}
	d.add("emi.variants", float64(len(variants)))
	d.add("emi.distinct", float64(len(canon)))
	var units []campaign.Unit
	for gi := range variants {
		for _, cfg := range cfgs {
			units = append(units, campaign.Unit{Src: gi, Cfg: cfg, Opt: false}, campaign.Unit{Src: gi, Cfg: cfg, Opt: true})
		}
	}
	type unitKey struct {
		src string
		mk  campaign.ModelKey
	}
	reps, _ := campaign.GroupUnits(len(units), func(i int) unitKey {
		return unitKey{variants[units[i].Src], campaign.ModelKeyOf(units[i].Cfg, units[i].Opt)}
	})
	for _, i := range reps {
		d.compile(units[i].Cfg, units[i].Opt, fes[units[i].Src])
	}
	d.add("campaign.units", float64(len(units)))
	var results []campaign.UnitResult
	d.tr.Do("campaign", "Engine.RunMatrix", func() {
		results = eng.RunMatrix(campaign.Matrix{
			Name:     fmt.Sprintf("emi-base-%d", base.Seed),
			Sources:  variants,
			ND:       base.ND,
			Buffers:  func(int) (exec.Args, *exec.Buffer) { return base.Buffers() },
			BaseFuel: d.baseFuel,
			Units:    units,
		}, 1)
	})

	id := d.tr.Begin("oracle", "classify (oracle.Equal)")
	perKey := map[string][]campaign.UnitResult{}
	perKeyGrid := map[string][]int{}
	for i, u := range units {
		k := campaign.Key(u.Cfg, u.Opt)
		perKey[k] = append(perKey[k], results[i])
		perKeyGrid[k] = append(perKeyGrid[k], u.Src)
	}
	for _, k := range keys {
		vs := perKey[k]
		var st harness.Table5Stats
		var first []uint64
		haveOK, wrong, bf, crash, to := false, false, false, false, false
		for _, v := range vs {
			switch v.Outcome {
			case device.OK:
				if !haveOK {
					first, haveOK = v.Output, true
				} else if !oracle.Equal(first, v.Output) {
					wrong = true
				}
			case device.BuildFailure:
				bf = true
			case device.Crash:
				crash = true
			case device.Timeout:
				to = true
			}
		}
		if !haveOK {
			st.BaseFails++
			rec.PerKey[k] = st
			continue
		}
		if wrong {
			st.W++
			majority := majorityOutput(vs)
			for i, v := range vs {
				if v.Outcome == device.OK && !oracle.Equal(majority, v.Output) {
					rec.Pruning[perKeyGrid[k][i]]++
				}
			}
		}
		if bf {
			st.BF++
		}
		if crash {
			st.C++
		}
		if to {
			st.TO++
		}
		if !wrong && !bf && !crash && !to {
			st.Stable++
		}
		rec.PerKey[k] = st
	}
	d.tr.End(id)
	return rec, nil
}

// majorityOutput is a copy of majorityOutput in
// internal/harness/table5.go (oracle.Majority breaks ties differently).
func majorityOutput(vs []campaign.UnitResult) []uint64 {
	var best []uint64
	bestN := 0
	for i, v := range vs {
		if v.Outcome != device.OK {
			continue
		}
		n := 0
		for _, w := range vs {
			if w.Outcome == device.OK && oracle.Equal(v.Output, w.Output) {
				n++
			}
		}
		if n > bestN {
			best, bestN = vs[i].Output, n
		}
	}
	return best
}

// chainState is one fuzzing chain of the replica: its configuration,
// accumulated coverage and corpus.
type chainState struct {
	cfg    corpus.ChainConfig
	cover  *exec.CoverMap
	corpus *corpus.Corpus
}

// mix is the chain's (seed, step) → rng-seed dispersal (splitmix64), a
// copy of mix in internal/corpus/chain.go.
func mix(seed int64, step int) int64 {
	z := uint64(seed) + uint64(step)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// fuzz runs the guided campaign's chains. Their configuration mirrors
// harness.FuzzChains and fuzzDiffConfigs (internal/harness/fuzz.go);
// case i is step i/chains of chain i%chains, as in harness.fuzzCampaign.
func (d *tracedRun) fuzz(p harness.Params) ([]json.RawMessage, error) {
	nch := p.Chains
	if nch <= 0 {
		nch = 4
	}
	cfgs := harness.AboveThresholdConfigs()
	var diff []*device.Config
	if len(cfgs) > 1 {
		diff = append(diff, cfgs[1])
	}
	if len(cfgs) > 3 {
		diff = append(diff, cfgs[len(cfgs)/2])
	}
	chains := make([]*chainState, nch)
	for ci := range chains {
		chains[ci] = &chainState{
			cfg: corpus.ChainConfig{
				Index: ci, Seed: p.Seed + int64(ci)*1000003, Threads: p.Threads, BaseFuel: p.BaseFuel,
				CorpusSize: 64, FreshProb: 0.3, Ref: device.Reference(), Diff: diff,
			},
			cover:  new(exec.CoverMap),
			corpus: corpus.New(64),
		}
	}
	if p.Fresh {
		return nil, fmt.Errorf("the traced replica runs the guided campaign only")
	}
	n := nch * p.Scale
	recs := make([]json.RawMessage, n)
	for i := 0; i < n; i++ {
		d.tr.Case = i
		c := chains[i%nch]
		var rec corpus.StepRecord
		d.tr.Do("corpus", "(*Chain).Step replica", func() { rec = d.step(c, i/nch) })
		d.add("corpus.steps", 1)
		recs[i] = d.encode(rec)
	}
	return recs, nil
}

// step mirrors one chain step, (*corpus.Chain).stepLocked
// (internal/corpus/chain.go): schedule (mutate a corpus member or
// generate fresh), the covered reference launch, corpus update and the
// differential check.
func (d *tracedRun) step(c *chainState, step int) corpus.StepRecord {
	cc := c.cfg
	rng := rand.New(rand.NewSource(mix(cc.Seed, step)))
	fs := corpus.SwarmSubset(cc.Seed, step)
	rec := corpus.StepRecord{
		Chain: cc.Index, Step: step, Origin: corpus.OriginFresh, Parent: -1, Features: corpus.FeatureTag(fs),
	}
	var k *generator.Kernel
	if c.corpus.Len() > 0 && rng.Float64() >= cc.FreshProb {
		m := c.corpus.Pick(rng)
		var donor *corpus.Member
		if c.corpus.Len() > 1 {
			donor = c.corpus.Pick(rng)
		}
		var origin string
		var mk *generator.Kernel
		var err error
		d.tr.Do("corpus", "corpus.Mutate", func() { origin, mk, err = corpus.Mutate(rng, m, donor) })
		if err == nil {
			k, rec.Origin, rec.Parent = mk, origin, m.ID
		}
	}
	if k == nil {
		emiBlocks := 0
		if rng.Intn(2) == 1 {
			emiBlocks = 1
		}
		k = d.generate(generator.Options{
			Mode: generator.ModeAll, Seed: rng.Int63(), Features: &fs, EMIBlocks: emiBlocks, MaxTotalThreads: cc.Threads,
		})
		d.add("generator.accepted", 1)
	}
	rec.SrcHash = corpus.Fingerprint(k.Src)

	stepCov := new(exec.CoverMap)
	ref := d.unit(cc.Ref, true, d.front(k.Src), k.ND, k.Buffers, 1, stepCov)
	rec.Outcome = ref.Outcome.String()
	for _, e := range stepCov.Edges() {
		if !c.cover.Has(e) {
			rec.Edges = append(rec.Edges, e)
		}
	}
	rec.Gain = len(rec.Edges)
	c.cover.AddEdges(rec.Edges)
	sites := stepCov.SiteHits()
	c.cover.AddSites(sites)
	for _, s := range sites {
		if s != 0 {
			rec.Sites = sites[:]
			break
		}
	}
	d.tr.Do("corpus", "Corpus.Add", func() { c.corpus.Add(k, rec.Gain) })
	rec.Corpus = c.corpus.Len()
	if ref.Outcome == device.OK {
		check := func(cfg *device.Config, opt bool) {
			r := d.unit(cfg, opt, d.front(k.Src), k.ND, k.Buffers, 1, nil)
			if r.Outcome == device.OK {
				d.tr.Do("oracle", "oracle.Equal", func() {
					if !oracle.Equal(r.Output, ref.Output) {
						rec.Mismatch = true
					}
				})
			}
		}
		check(cc.Ref, false)
		for _, dc := range cc.Diff {
			if dc != cc.Ref {
				check(dc, true)
			}
		}
	}
	return rec
}

// replayBackEnds feeds every distinct back-end input of the round through
// the stages Config.CompileFrontEnd runs inside: sema.Check, opt.EarlyFolds
// and opt.Optimize, code.Lower and code.Fuse.
func (d *tracedRun) replayBackEnds() {
	for _, k := range d.backList {
		in := d.backs[k]
		var prog *ast.Program
		var err error
		d.tr.Do("sema", "sema.Check", func() { prog, _, err = sema.Check(in.fe.Prog, in.lvl.Defects) })
		if err != nil {
			continue
		}
		d.tr.Do("opt", "opt.EarlyFolds", func() { prog = opt.EarlyFolds(prog, in.lvl.Defects, in.fe.Hash) })
		if in.opt {
			d.tr.Do("opt", "opt.Optimize", func() { prog = opt.Optimize(prog, in.lvl.Defects) })
		}
		var cp *code.Program
		d.tr.Do("code", "code.Lower", func() { cp, err = code.Lower(prog) })
		if err != nil {
			continue
		}
		var fused *code.Program
		d.tr.Do("code", "code.Fuse", func() { fused = code.Fuse(cp) })
		d.add("code.instrs", float64(instrs(cp)))
		d.add("code.fused_instrs", float64(instrs(fused)))
	}
}

func instrs(p *code.Program) int {
	n := 0
	for _, fn := range p.Fns {
		n += len(fn.Code)
	}
	return n
}

// replayStore reads every entry of the round's store directory through
// Store.Get and writes it to a scratch store through Store.Put: the
// store's read and write paths on the round's own payloads.
func (d *tracedRun) replayStore(dir string) error {
	src, err := store.Open(dir)
	if err != nil {
		return err
	}
	scratch := dir + ".replay"
	defer os.RemoveAll(scratch)
	dst, err := store.Open(scratch)
	if err != nil {
		return err
	}
	fans, _ := os.ReadDir(dir)
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		ents, _ := os.ReadDir(filepath.Join(dir, fan.Name()))
		for _, e := range ents {
			addr, err := strconv.ParseUint(e.Name(), 16, 64)
			if err != nil || len(e.Name()) != 16 {
				continue
			}
			var payload []byte
			var ok bool
			d.tr.Do("store", "Store.Get", func() { payload, ok = src.Get(addr) })
			if ok {
				d.tr.Do("store", "Store.Put", func() { dst.Put(addr, payload) })
			}
		}
	}
	return nil
}
