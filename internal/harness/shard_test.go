package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
)

// shardParams are deliberately tiny: the property under test is byte
// identity, not campaign statistics. CI runs this file under -race in
// both engine jobs (the default VM job and the CLFUZZ_ENGINE=tree job),
// so the shard/merge and result-cache invariants are pinned on both
// evaluation engines.
// The Fuel record follows the process default so the CLFUZZ_FUEL=v2 CI
// job exercises the same byte-identity suite under the fused model.
var shardParams = []Params{
	{Table: 4, Scale: 2, Seed: 99, Threads: 24, Fuel: DefaultFuelParam()},
	{Table: 5, Scale: 2, Seed: 99, Threads: 24, Fuel: DefaultFuelParam()},
}

// freshEngine returns an isolated campaign engine; withResults arms the
// cross-base result cache (the uncached reference runs without it).
func freshEngine(withResults bool) *campaign.Engine {
	eng := &campaign.Engine{Front: device.NewFrontCache(1024)}
	if withResults {
		eng.Results = campaign.NewResultCache(8192)
	}
	return eng
}

// TestShardMergeDeterminism is the campaign substrate's central
// invariant: for the Table 4 and Table 5 campaigns, (a) the cross-base
// result cache is invisible — a cached run renders byte-identical to the
// cache-free reference, and a second, fully memoized run renders the
// same bytes again — and (b) sharding is invisible — 2- and 3-shard runs
// merge byte-identical to the unsharded output. Run under -race (CI
// does) with the executor's immutable-program assertion armed.
func TestShardMergeDeterminism(t *testing.T) {
	armImmutableAssert(t)
	for _, p := range shardParams {
		ref, err := renderCampaign(nil, freshEngine(false), p)
		if err != nil {
			t.Fatalf("table %d reference: %v", p.Table, err)
		}
		cached := freshEngine(true)
		got, err := renderCampaign(nil, cached, p)
		if err != nil {
			t.Fatalf("table %d cached: %v", p.Table, err)
		}
		if got != ref {
			t.Fatalf("table %d: result-cached output differs from the uncached reference:\n%s\n--- vs ---\n%s", p.Table, got, ref)
		}
		again, err := renderCampaign(nil, cached, p)
		if err != nil {
			t.Fatalf("table %d rerun: %v", p.Table, err)
		}
		if again != ref {
			t.Fatalf("table %d: fully memoized rerun differs from the reference", p.Table)
		}
		// The rerun must be served by the cross-campaign memo (Table 4
		// additionally hits within one campaign: the acceptance filter's
		// launches are reused by the matrix).
		if hits, _, _ := cached.Results.Stats(); hits == 0 {
			t.Errorf("table %d: campaigns never hit the result cache", p.Table)
		}
		for _, shards := range []int{2, 3} {
			files := make([]*ShardFile, shards)
			for s := 0; s < shards; s++ {
				// Each shard gets its own engine: shards run in separate
				// processes in production, so nothing may leak between
				// them for the merge to be byte-identical.
				sf, err := runShard(nil, freshEngine(true), p, s, shards, ShardRunOptions{})
				if err != nil {
					t.Fatalf("table %d shard %d/%d: %v", p.Table, s, shards, err)
				}
				files[s] = sf
			}
			merged, err := mergeShards(freshEngine(true), files, nil)
			if err != nil {
				t.Fatalf("table %d merge %d: %v", p.Table, shards, err)
			}
			if merged != ref {
				t.Fatalf("table %d: %d-shard merge differs from the unsharded run:\n%s\n--- vs ---\n%s", p.Table, shards, merged, ref)
			}
		}
	}
}

// TestFuelV2CampaignDeterminism pins the fuel/v2 campaign contract:
// with the process default set to the superinstruction model, a
// campaign renders byte-identically across reruns and across a
// shard/merge split, exactly as fuel/v1 does — and shard params that
// fail to record the model are refused, so a v1 shard file can never
// be folded into a v2 campaign unnoticed. CI runs this under -race
// with CLFUZZ_FUEL=v2 set process-wide as well.
func TestFuelV2CampaignDeterminism(t *testing.T) {
	armImmutableAssert(t)
	saved := device.DefaultFuelModel
	device.DefaultFuelModel = exec.FuelV2
	t.Cleanup(func() { device.DefaultFuelModel = saved })
	p := Params{Table: 5, Scale: 2, Seed: 99, Threads: 24, Fuel: "v2"}
	ref, err := renderCampaign(nil, freshEngine(false), p)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	again, err := renderCampaign(nil, freshEngine(true), p)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if again != ref {
		t.Fatalf("fuel/v2 rerun differs from the reference:\n%s\n--- vs ---\n%s", again, ref)
	}
	files := make([]*ShardFile, 2)
	for s := range files {
		sf, err := runShard(nil, freshEngine(true), p, s, 2, ShardRunOptions{})
		if err != nil {
			t.Fatalf("shard %d/2: %v", s, err)
		}
		files[s] = sf
	}
	merged, err := mergeShards(freshEngine(true), files, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged != ref {
		t.Fatalf("fuel/v2 2-shard merge differs from the unsharded run:\n%s\n--- vs ---\n%s", merged, ref)
	}
	// A shard whose params omit the fuel record must be refused while
	// the process default is v2: its records would have been produced
	// under a different timeout frontier.
	v1p := p
	v1p.Fuel = ""
	if _, err := runShard(nil, freshEngine(true), v1p, 0, 2, ShardRunOptions{}); err == nil {
		t.Fatal("shard with v1 params ran under a v2 process default")
	}
}

// TestShardMergeRejectsBadSets: incomplete, duplicated or mismatched
// shard sets must be refused — with errors precise enough to name the
// offending file and case — not silently merged.
func TestShardMergeRejectsBadSets(t *testing.T) {
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16, Fuel: DefaultFuelParam()}
	eng := freshEngine(true)
	s0, err := runShard(nil, eng, p, 0, 2, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := runShard(nil, eng, p, 1, 2, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runShard(nil, eng, p, 2, 2, ShardRunOptions{}); err == nil {
		t.Error("runShard accepted an out-of-range shard index")
	}
	clone := func(sf *ShardFile) *ShardFile {
		cp := *sf
		cp.Records = append([]ShardRecord(nil), sf.Records...)
		return &cp
	}
	tests := []struct {
		name    string
		files   func() []*ShardFile
		labels  []string
		wantErr []string // substrings the error must carry
	}{
		{
			name:    "incomplete set",
			files:   func() []*ShardFile { return []*ShardFile{s0} },
			wantErr: []string{"missing cases"},
		},
		{
			name:    "duplicated shard",
			files:   func() []*ShardFile { return []*ShardFile{s0, s0, s1} },
			labels:  []string{"a.json", "b.json", "c.json"},
			wantErr: []string{"appears in both", "a.json", "b.json"},
		},
		{
			name: "duplicate index across shards",
			files: func() []*ShardFile {
				bad := clone(s1)
				bad.Records[0].Index = s0.Records[0].Index
				return []*ShardFile{s0, bad}
			},
			labels:  []string{"good.json", "bad.json"},
			wantErr: []string{"appears in both", "good.json", "bad.json"},
		},
		{
			name: "mismatched parameters",
			files: func() []*ShardFile {
				other := clone(s1)
				other.Seed = 8
				return []*ShardFile{s0, other}
			},
			wantErr: []string{"parameters disagree"},
		},
		{
			name: "mismatched schema",
			files: func() []*ShardFile {
				other := clone(s0)
				other.Schema = "clfuzz-shard/v0"
				return []*ShardFile{other, s1}
			},
			labels:  []string{"old.json", "new.json"},
			wantErr: []string{"old.json", "unknown shard schema"},
		},
		{
			name: "index out of range",
			files: func() []*ShardFile {
				bad := clone(s0)
				bad.Records[0].Index = bad.Cases + 5
				return []*ShardFile{bad, s1}
			},
			labels:  []string{"oob.json", "ok.json"},
			wantErr: []string{"oob.json", "out of range"},
		},
	}
	for _, tt := range tests {
		_, err := mergeShards(eng, tt.files(), tt.labels)
		if err == nil {
			t.Errorf("%s: merge accepted the bad set", tt.name)
			continue
		}
		for _, want := range tt.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tt.name, err, want)
			}
		}
	}
}

// TestValidateShardFile: per-file validation catches corruption a merge
// would otherwise report confusingly (or not at all), naming the file.
func TestValidateShardFile(t *testing.T) {
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16, Fuel: DefaultFuelParam()}
	eng := freshEngine(true)
	good, err := runShard(nil, eng, p, 0, 2, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateShardFile(good, "good.json"); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	mutate := func(fn func(sf *ShardFile)) *ShardFile {
		cp := *good
		cp.Records = append([]ShardRecord(nil), good.Records...)
		fn(&cp)
		return &cp
	}
	tests := []struct {
		name    string
		sf      *ShardFile
		wantErr string
	}{
		{"bad schema", mutate(func(sf *ShardFile) { sf.Schema = "nope" }), "unknown shard schema"},
		{"bad slice", mutate(func(sf *ShardFile) { sf.Shard = 2 }), "bad shard"},
		{"index out of range", mutate(func(sf *ShardFile) { sf.Records[0].Index = sf.Cases }), "out of range"},
		{"wrong slot", mutate(func(sf *ShardFile) { sf.Records[0].Index = 1 }), "does not belong to shard"},
		{"duplicate case", mutate(func(sf *ShardFile) { sf.Records[1].Index = sf.Records[0].Index }), "appears twice"},
		{"truncated payload", mutate(func(sf *ShardFile) { sf.Records[0].Data = json.RawMessage(`{"resul`) }), "truncated or corrupt payload"},
		{"empty payload", mutate(func(sf *ShardFile) { sf.Records[0].Data = nil }), "truncated or corrupt payload"},
	}
	for _, tt := range tests {
		err := ValidateShardFile(tt.sf, "f.json")
		if err == nil {
			t.Errorf("%s: accepted", tt.name)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tt.name, err, tt.wantErr)
		}
		if !strings.Contains(err.Error(), "f.json") {
			t.Errorf("%s: error %q does not name the file", tt.name, err)
		}
	}
}

// TestLoadShardFile: on-disk corruption (a worker killed mid-write
// without the atomic rename) is reported precisely, naming the file.
func TestLoadShardFile(t *testing.T) {
	dir := t.TempDir()
	truncated := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncated, []byte(`{"schema":"clfuzz-shard/v1","records":[{"ind`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadShardFile(truncated)
	if err == nil {
		t.Fatal("loaded a truncated file")
	}
	if !strings.Contains(err.Error(), "truncated.json") || !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("error %q does not identify the corrupt file", err)
	}
	if _, err := LoadShardFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("loaded an absent file")
	}
	// Round trip through MergeShardPaths.
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16, Fuel: DefaultFuelParam()}
	eng := freshEngine(true)
	var paths []string
	for s := 0; s < 2; s++ {
		sf, err := runShard(nil, eng, p, s, 2, ShardRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "shard-"+string(rune('0'+s))+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := MergeShardPaths(paths)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := renderCampaign(nil, freshEngine(true), p)
	if err != nil {
		t.Fatal(err)
	}
	if merged != ref {
		t.Fatal("MergeShardPaths output differs from the unsharded run")
	}
}

// TestShardResume: a partial prior file is reused — only the missing
// cases execute — and the result is byte-identical to a fresh run.
func TestShardResume(t *testing.T) {
	p := Params{Table: 4, Scale: 2, Seed: 99, Threads: 24, Fuel: DefaultFuelParam()}
	full, err := runShard(nil, freshEngine(true), p, 0, 2, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) < 2 {
		t.Fatalf("campaign too small for the test: %d records", len(full.Records))
	}
	partial := *full
	partial.Records = append([]ShardRecord(nil), full.Records[:1]...)
	var ran int
	resumed, err := runShard(nil, freshEngine(true), p, 0, 2, ShardRunOptions{
		Prior:  &partial,
		OnCase: func(done, total int) { ran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != len(full.Records)-1 {
		t.Fatalf("resume ran %d cases, want %d (only the missing ones)", ran, len(full.Records)-1)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Fatalf("resumed shard differs from the fresh run:\n%s\nvs\n%s", a, b)
	}
	// A prior file from a different slice or campaign must be refused.
	wrong := *full
	wrong.Shard = 1
	if _, err := runShard(nil, freshEngine(true), p, 0, 2, ShardRunOptions{Prior: &wrong}); err == nil {
		t.Error("resume accepted a prior file from another slice")
	}
}

// TestShardCancellation: a cancelled shard run returns ctx's error plus
// a valid partial file that resumes to the byte-identical full result.
func TestShardCancellation(t *testing.T) {
	p := Params{Table: 4, Scale: 2, Seed: 99, Threads: 24, Fuel: DefaultFuelParam()}
	full, err := runShard(nil, freshEngine(true), p, 0, 1, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var flushed *ShardFile
	partial, err := runShard(ctx, freshEngine(true), p, 0, 1, ShardRunOptions{
		OnCase: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	flushed = partial
	if flushed == nil {
		t.Fatal("no partial file flushed on cancellation")
	}
	if len(flushed.Records) >= len(full.Records) {
		t.Fatalf("cancelled run completed all %d cases", len(full.Records))
	}
	if err := ValidateShardFile(flushed, "partial"); err != nil {
		t.Fatalf("partial file invalid: %v", err)
	}
	resumed, err := runShard(nil, freshEngine(true), p, 0, 1, ShardRunOptions{Prior: flushed})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Fatal("resume after cancellation diverged from the uninterrupted run")
	}
}

// TestQuarantineShard: the synthesized all-crash shard merges with real
// shards and covers exactly the quarantined slice.
func TestQuarantineShard(t *testing.T) {
	p := Params{Table: 4, Scale: 1, Seed: 7, Threads: 16, Fuel: DefaultFuelParam()}
	real0, err := runShard(nil, freshEngine(true), p, 0, 2, ShardRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := QuarantineShard(p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateShardFile(q1, "quarantine"); err != nil {
		t.Fatalf("quarantine shard invalid: %v", err)
	}
	if !q1.Complete() {
		t.Fatal("quarantine shard does not cover its slice")
	}
	merged, err := mergeShards(freshEngine(true), []*ShardFile{real0, q1}, nil)
	if err != nil {
		t.Fatalf("merge with quarantined shard: %v", err)
	}
	ref, err := renderCampaign(nil, freshEngine(true), p)
	if err != nil {
		t.Fatal(err)
	}
	if merged == ref {
		t.Fatal("quarantined cases left no trace in the rendered table")
	}
}
