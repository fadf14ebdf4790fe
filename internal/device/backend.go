package device

import (
	"sync"
	"sync/atomic"

	"clfuzz/internal/ast"
	"clfuzz/internal/bugs"
	"clfuzz/internal/code"
	"clfuzz/internal/opt"
	"clfuzz/internal/sema"
)

// Defect bits each compile stage actually consults. The staged caches
// below key on the intersection of a level's defect set with these masks,
// so configurations whose models differ only in executor-level or
// hash-gate defects share the expensive stage products outright. The
// cached-vs-uncached determinism tests (internal/harness and
// TestBackCacheMatchesUncached) pin these masks: a defect added to sema
// or opt without extending the mask makes the cached path visibly diverge
// from the CompileUncached reference.
const (
	// semaDefects: the only bits semantic analysis reads (all three gate
	// rejections; annotations never depend on the defect set, so every
	// successful check of one source yields the identical program).
	semaDefects = bugs.FEIntSizeTMix | bugs.FEVectorLogicalReject | bugs.FEVectorInStructICE
	// foldDefects: the bits the front-end folds and the optimization
	// pipeline read (rotate and swizzle misfolds, the group-id flip).
	foldDefects = bugs.WCRotateConstFold | bugs.WCGroupIDExpr | bugs.WCSwizzleFold
)

// backKey identifies everything that can influence the back end's product:
// the source (by hash, collision-checked against the stored source), the
// level's armed defect set, the two compile-time hash-gate divisors, and
// whether the optimizer effectively runs (the optimization flag after
// NoOptimizer is applied). Two (configuration, level) pairs with equal
// keys compile to byte-identical programs, so they share one immutable
// back-end artifact.
type backKey struct {
	hash     uint64
	defects  bugs.Set
	bfDiv    uint64
	slowDiv  uint64
	optimize bool
}

// backEnd is the immutable product of one back-end compilation: the
// outcome with its diagnostic, and for OK outcomes the checked, folded,
// (possibly) optimized program plus its semantic summary. The program is
// read-only — sema and opt build rather than mutate, and the executor
// never writes to the AST — so one backEnd may be wrapped into Kernels by
// any number of configurations and run concurrently.
type backEnd struct {
	src     string
	outcome Outcome
	msg     string
	prog    *ast.Program
	info    *sema.Info
	// code is the register bytecode lowered from prog (nil when lowering
	// declined and the kernel runs on the tree-walking engine). Like prog
	// it is immutable and shared across configurations and launches.
	code *code.Program
	// fused lazily memoizes the fuel/v2 superinstruction form of code
	// (nil exactly when code is nil): the fusion pass runs at most once
	// per shared artifact, only in processes that actually select
	// fuel/v2, and the fused program is as immutable and shareable as
	// code itself.
	fused func() *code.Program
}

// fusedOnce wraps a lowered program in a lazy, concurrency-safe memo of
// its fused fuel/v2 form.
func fusedOnce(cp *code.Program) func() *code.Program {
	if cp == nil {
		return nil
	}
	return sync.OnceValue(func() *code.Program { return code.Fuse(cp) })
}

// checkedKey addresses the sema stage: defects is masked to semaDefects.
type checkedKey struct {
	hash    uint64
	defects bugs.Set
}

// checkedEntry is a memoized sema product: the annotated program and its
// summary, or the build diagnostic that rejected the source.
type checkedEntry struct {
	src    string
	prog   *ast.Program
	info   *sema.Info
	errMsg string
}

// progKey addresses the fold/optimize stage: defects is masked to
// foldDefects.
type progKey struct {
	hash     uint64
	defects  bugs.Set
	optimize bool
}

type progEntry struct {
	src   string
	prog  *ast.Program
	code  *code.Program
	fused func() *code.Program
}

// Lowering counters: programs lowered to bytecode vs programs that fell
// back to the tree engine. Shared artifacts (lowered once, reused via the
// prog-stage memo) count once, so the ratio measures distinct compiles.
var (
	lowerCompiles atomic.Uint64
	lowerFallback atomic.Uint64
)

// LowerStats reports the cumulative lowering counters: how many distinct
// back-end programs were compiled to bytecode, and how many fell back to
// the tree-walking engine.
func LowerStats() (lowered, fellBack uint64) {
	return lowerCompiles.Load(), lowerFallback.Load()
}

// lowerProgram compiles the finished back-end program to register
// bytecode, recording the outcome. A lowering failure is not an error:
// the kernel simply runs on the reference tree walker, which is
// byte-identical (and what the -engine=tree escape hatch forces anyway).
func lowerProgram(prog *ast.Program) *code.Program {
	cp, err := code.Lower(prog)
	if err != nil {
		lowerFallback.Add(1)
		return nil
	}
	lowerCompiles.Add(1)
	return cp
}

// BackCache is a bounded, concurrency-safe memo of back-end compilations
// keyed by (source hash, defect set, gate divisors, effective optimize).
// It is the second level of the compile cache: the FrontCache collapses
// the 42 parses of a full Table 1 matrix to one, and the BackCache
// collapses the 42 check+fold+optimize runs to one finished read-only
// kernel per distinct defect model — the four identical NVIDIA levels,
// the shared Intel CPU no-opt model and Oclgrind's ignored optimization
// flag all map to one entry.
//
// Internally the cache is staged along what each compile phase actually
// depends on: one sema product per (source, semaDefects) — in practice
// one per source, since rejections are rare — and one folded/optimized
// program per (source, foldDefects, effective optimize). Defect models
// that differ only in runtime gates therefore share every expensive
// phase, and the finished artifacts for different models share all
// untouched subtrees (the passes are copy-on-write).
//
// Eviction is FIFO over insertion order in every stage, like the
// FrontCache: the memoized artifact for a key never varies, so campaign
// outputs do not depend on hit/miss patterns.
type BackCache struct {
	mu      sync.Mutex
	cap     int
	entries map[backKey]*backEnd
	fifo    []backKey // insertion order, oldest first
	checked map[checkedKey]*checkedEntry
	ckFifo  []checkedKey
	progs   map[progKey]*progEntry
	pgFifo  []progKey
	hits    uint64
	misses  uint64
}

// NewBackCache returns a cache bounded to capacity finished artifacts
// (minimum 1). The internal stage memos hold at most capacity entries
// each as well; they only ever hold fewer distinct keys than the
// finished level.
func NewBackCache(capacity int) *BackCache {
	if capacity < 1 {
		capacity = 1
	}
	return &BackCache{
		cap:     capacity,
		entries: make(map[backKey]*backEnd),
		checked: make(map[checkedKey]*checkedEntry),
		progs:   make(map[progKey]*progEntry),
	}
}

// get returns the memoized back end for the key, or nil on a miss. src
// guards against the (theoretical) 64-bit source-hash collision: a
// mismatch is treated as a miss whose result must not be recorded, so
// collisions cost performance, never correctness.
func (bc *BackCache) get(key backKey, src string) (be *backEnd, collided bool) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if e, ok := bc.entries[key]; ok {
		if e.src == src {
			bc.hits++
			return e, false
		}
		return nil, true
	}
	bc.misses++
	return nil, false
}

// put records a freshly compiled back end. Two concurrent misses for the
// same key are benign (the artifacts are identical); the first insert
// wins, keeping the FIFO order consistent.
func (bc *BackCache) put(key backKey, be *backEnd) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if _, ok := bc.entries[key]; ok {
		return
	}
	if len(bc.fifo) >= bc.cap {
		oldest := bc.fifo[0]
		bc.fifo = bc.fifo[1:]
		delete(bc.entries, oldest)
	}
	bc.entries[key] = be
	bc.fifo = append(bc.fifo, key)
}

// assemble builds the finished artifact for one defect model through the
// stage memos. The compile work runs outside the cache lock; duplicated
// concurrent work for one key is benign (identical immutable results).
func (bc *BackCache) assemble(fe *FrontEnd, lvl Level, effOpt bool) *backEnd {
	be := &backEnd{src: fe.Canon}
	ce := bc.checkedFor(checkedKey{hash: fe.Hash, defects: lvl.Defects & semaDefects}, fe)
	if ce.errMsg != "" {
		be.outcome, be.msg = BuildFailure, ce.errMsg
		return be
	}
	if out, msg := compileGates(ce.info, fe.Hash, lvl); out != OK {
		be.outcome, be.msg = out, msg
		return be
	}
	pe := bc.progFor(progKey{hash: fe.Hash, defects: lvl.Defects & foldDefects, optimize: effOpt}, fe, ce.prog)
	be.prog, be.code, be.fused = pe.prog, pe.code, pe.fused
	be.info = ce.info
	return be
}

// checkedFor returns the memoized sema product for the key, checking the
// pristine front end on a miss.
func (bc *BackCache) checkedFor(key checkedKey, fe *FrontEnd) *checkedEntry {
	bc.mu.Lock()
	e, ok := bc.checked[key]
	bc.mu.Unlock()
	if ok && e.src == fe.Canon {
		return e
	}
	collided := ok // present but for a different source: never record
	prog, info, err := sema.Check(fe.Prog, key.defects)
	ne := &checkedEntry{src: fe.Canon, prog: prog, info: info}
	if err != nil {
		ne.prog, ne.info, ne.errMsg = nil, nil, err.Error()
	}
	if !collided {
		bc.mu.Lock()
		if _, ok := bc.checked[key]; !ok {
			if len(bc.ckFifo) >= bc.cap {
				oldest := bc.ckFifo[0]
				bc.ckFifo = bc.ckFifo[1:]
				delete(bc.checked, oldest)
			}
			bc.checked[key] = ne
			bc.ckFifo = append(bc.ckFifo, key)
		}
		bc.mu.Unlock()
	}
	return ne
}

// progFor returns the memoized folded/optimized/lowered program for the
// key, running the copy-on-write pipeline (and the bytecode lowering)
// over the shared checked program on a miss.
func (bc *BackCache) progFor(key progKey, fe *FrontEnd, checked *ast.Program) *progEntry {
	bc.mu.Lock()
	e, ok := bc.progs[key]
	bc.mu.Unlock()
	if ok && e.src == fe.Canon {
		return e
	}
	collided := ok
	prog := opt.EarlyFolds(checked, key.defects, key.hash)
	if key.optimize {
		prog = opt.Optimize(prog, key.defects)
	}
	ne := &progEntry{src: fe.Canon, prog: prog, code: lowerProgram(prog)}
	ne.fused = fusedOnce(ne.code)
	if !collided {
		bc.mu.Lock()
		if _, ok := bc.progs[key]; !ok {
			if len(bc.pgFifo) >= bc.cap {
				oldest := bc.pgFifo[0]
				bc.pgFifo = bc.pgFifo[1:]
				delete(bc.progs, oldest)
			}
			bc.progs[key] = ne
			bc.pgFifo = append(bc.pgFifo, key)
		}
		bc.mu.Unlock()
	}
	return ne
}

// Stats reports cumulative hit/miss counts of the finished-artifact level
// and its current entry count.
func (bc *BackCache) Stats() (hits, misses uint64, size int) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.hits, bc.misses, len(bc.entries)
}

// DefaultBackCache is the process-wide back-end cache used by
// Config.Compile and Config.CompileFrontEnd. A full campaign touches a
// couple dozen distinct defect models per source, so the default capacity
// holds the complete Table 1 matrix for well over a hundred concurrent
// sources. CompileUncached bypasses it (and the front cache) entirely.
var DefaultBackCache = NewBackCache(4096)

// compileGates evaluates the compile-time defect triggers for one level:
// the deterministic hang/slow-compile patterns and the hash-gated
// internal-error classes. It is shared verbatim by the cached and
// uncached back ends.
func compileGates(info *sema.Info, hash uint64, lvl Level) (Outcome, string) {
	switch {
	case lvl.Defects.Has(bugs.FECompileHangLoop) && info.HasHangPattern:
		return Timeout, "compiler entered an unbounded loop (Figure 1(e))"
	case lvl.Defects.Has(bugs.FESlowStructBarrier) && info.HasBarrier && info.MaxStructBytes > 64:
		return Timeout, "prohibitively slow compilation of large struct with barrier (Figure 1(f))"
	case lvl.Defects.Has(bugs.FEICEAttr) && bugs.Gate(hash, saltICEAttr, lvl.BFDiv):
		return BuildFailure, "internal error: Wrong type for attribute zeroext"
	case lvl.Defects.Has(bugs.FEICEPass) && bugs.Gate(hash, saltICEPass, lvl.BFDiv):
		return BuildFailure, "internal error in pass 'Intel OpenCL Vectorizer': Instruction does not dominate all uses!"
	case lvl.Defects.Has(bugs.FEICEBarrierHeavy) && info.BarrierCount >= 2 && bugs.Gate(hash, saltICEBarrier, lvl.BFDiv):
		return BuildFailure, "internal error in pass 'Intel OpenCL Barrier'"
	case lvl.Defects.Has(bugs.BFHash) && bugs.Gate(hash, saltBF, lvl.BFDiv):
		return BuildFailure, "internal compiler error"
	case lvl.Defects.Has(bugs.SlowCompileHash) && bugs.Gate(hash, saltSlow, lvl.SlowDiv):
		return Timeout, "compilation exceeded the test timeout"
	}
	return OK, ""
}

// compileBackEnd runs the cache-free back end on a parsed front end: it
// checks the pristine program under the level's defect set (producing a
// fresh annotated program — the front end is never written to), applies
// the compile-time defect gates, the always-on front-end folds, and the
// optimization pipeline when optimize is set (already adjusted for
// NoOptimizer by the caller). It is the reference path the determinism
// tests compare the staged cache against.
func compileBackEnd(fe *FrontEnd, lvl Level, optimize bool) *backEnd {
	be := &backEnd{src: fe.Canon}
	prog, info, err := sema.Check(fe.Prog, lvl.Defects)
	if err != nil {
		be.outcome, be.msg = BuildFailure, err.Error()
		return be
	}
	if out, msg := compileGates(info, fe.Hash, lvl); out != OK {
		be.outcome, be.msg = out, msg
		return be
	}
	// Always-on front-end folds (host of the ±-level folding defects),
	// then the optimization pipeline. Both are copy-on-write, so the
	// intermediate programs share untouched subtrees and nothing written
	// into the cache aliases mutable state.
	prog = opt.EarlyFolds(prog, lvl.Defects, fe.Hash)
	if optimize {
		prog = opt.Optimize(prog, lvl.Defects)
	}
	be.prog, be.info = prog, info
	be.code = lowerProgram(prog)
	be.fused = fusedOnce(be.code)
	return be
}
