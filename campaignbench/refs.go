package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// refsMain regenerates the checked-in reference records of one workload
// and seed, for every round a run can reach. Tables 4 and 5 are
// referenced on the tree-walking engine, the repository's semantics
// reference. The fuzzing campaign collects coverage only on the VM, so
// its reference is the VM's record set, required equal across two direct
// runs and compared with a 2-shard split and merge; rounds where the
// split disagrees are recorded in the file, not dropped.
func refsMain(args []string) int {
	fl := flag.NewFlagSet("refs", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "run seed")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "refs: unknown workload %q\n", *name)
		return 2
	}
	if err := writeRefs(w, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "refs:", err)
		return 1
	}
	return 0
}

func writeRefs(w Workload, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{w: w, seed: seed, exe: exe, ctx: context.Background(), work: filepath.Join(".bench_build", "refs", fmt.Sprintf("%s-%d", w.Name, seed))}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	rf := &RefFile{Workload: w.Name, Seed: seed, Source: "tree engine"}
	fuzz := w.Table != 4 && w.Table != 5
	if fuzz {
		rf.Source = "vm, equal across two direct runs; 2-shard split compared"
	}
	for r := 0; r < w.MaxRounds; r++ {
		mode := modeTree
		if fuzz {
			mode = modeMeasure
		}
		p, err := b.spawn(r, mode, "")
		if err != nil {
			return err
		}
		if fuzz {
			again, err := b.spawn(r, modeMeasure, "")
			if err != nil {
				return err
			}
			if d := diffCases(again.out.Records, p.out.Records); len(d) != 0 {
				return fmt.Errorf("round %d: two direct runs differ in cases %v", r, d)
			}
			split, err := b.spawn(r, modeShards, "")
			if err != nil {
				return err
			}
			if d := diffCases(split.out.Records, p.out.Records); len(d) != 0 {
				rf.ShardMismatch = append(rf.ShardMismatch, ShardMismatch{Round: r, Cases: d})
				fmt.Fprintf(os.Stderr, "refs: %s seed %d round %d: 2-shard merge differs in cases %v\n", w.Name, seed, r, d)
			}
		}
		rf.Rounds = append(rf.Rounds, RoundRef{Params: w.Params(seed, r), Records: p.out.Records})
		fmt.Fprintf(os.Stderr, "refs: %s seed %d round %d: %d records\n", w.Name, seed, r, len(p.out.Records))
	}
	return writeRef(refPath(benchDir(), w.Name, seed), rf)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
