package exec_test

import (
	"testing"

	"clfuzz/internal/ast"
	"clfuzz/internal/cltypes"
	"clfuzz/internal/code"
	"clfuzz/internal/exec"
	"clfuzz/internal/parser"
	"clfuzz/internal/sema"
)

// compileLowered front-ends src and lowers it once, so a test's
// launches share one *code.Program exactly as device.Kernel shares it
// across launches.
func compileLowered(t *testing.T, src string) (*ast.Program, *sema.Info, *code.Program) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, info, err := sema.Check(prog, 0)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	lowered, err := code.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog, info, lowered
}

// TestPooledReuseAcrossFuelModels is the reuse-poisoning gauntlet for
// the launch-state pool: with pool poisoning scribbling sentinel garbage
// over every recycled structure between launches and the immutable
// assertion armed, the lowered program (fuel/v1) and its fused form
// (fuel/v2) alternate on one private pool — each re-windowing register
// and frame stacks the other program (and the poisoner) just used — and
// every launch must still match its fresh-pool reference byte for byte.
func TestPooledReuseAcrossFuelModels(t *testing.T) {
	exec.SetDebugImmutable(true)
	exec.SetDebugPoisonPool(true)
	t.Cleanup(func() {
		exec.SetDebugImmutable(false)
		exec.SetDebugPoisonPool(false)
	})
	nd := exec.NDRange{Global: [3]int{16, 1, 1}, Local: [3]int{4, 1, 1}}
	pool := exec.NewLaunchPool()
	all := append(append([]struct{ name, src string }{}, parallelKernels...), engineKernels...)
	for _, k := range all {
		prog, info, lowered := compileLowered(t, k.src)
		run := func(p *exec.LaunchPool, cp *code.Program, fm exec.FuelModel) ([]uint64, error) {
			out := exec.NewBuffer(cltypes.TULong, nd.GlobalLinear())
			runErr := exec.Run(prog, nd, exec.Args{"out": {Buf: out}}, exec.Options{
				NoBarrier:  !info.HasBarrier,
				NoAtomics:  !info.HasAtomic,
				HasFwdDecl: info.HasFwdDecl,
				Workers:    1,
				Code:       cp,
				FuelModel:  fm,
				Pool:       p,
			})
			return out.Scalars(), runErr
		}
		models := []struct {
			fm exec.FuelModel
			cp *code.Program
		}{
			{exec.FuelV1, lowered},
			{exec.FuelV2, code.Fuse(lowered)},
		}
		// Fresh pool per reference launch: no state can carry over.
		// Kernels that error (on every engine) stay in the gauntlet:
		// the error path must also be reproducible from a poisoned pool.
		want := make([][]uint64, len(models))
		wantErr := make([]error, len(models))
		for i, m := range models {
			want[i], wantErr[i] = run(exec.NewLaunchPool(), m.cp, m.fm)
		}
		for round := 0; round < 3; round++ {
			for i, m := range models {
				got, gotErr := run(pool, m.cp, m.fm)
				if (gotErr == nil) != (wantErr[i] == nil) || (gotErr != nil && gotErr.Error() != wantErr[i].Error()) {
					t.Fatalf("%s round %d %v: err %v, want %v (poisoned pool state leaked)",
						k.name, round, m.fm, gotErr, wantErr[i])
				}
				if wantErr[i] != nil {
					continue
				}
				for j := range want[i] {
					if got[j] != want[i][j] {
						t.Fatalf("%s round %d %v: out[%d] = %d, want %d (poisoned pool state leaked)",
							k.name, round, m.fm, j, got[j], want[i][j])
					}
				}
			}
		}
	}
	if hits, _ := pool.Counters(); hits == 0 {
		t.Fatal("the shared pool was never hit: the gauntlet recycled nothing")
	}
}
