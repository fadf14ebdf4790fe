package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"clfuzz/internal/harness"
)

// Workload is one named campaign mix. A run of it is a sequence of
// rounds; each round is one campaign of the stated size, executed in a
// fresh worker process through harness.RunShard and harness.MergeShards.
type Workload struct {
	Name string
	// Table is the harness campaign: 4, 5 or harness.FuzzTable.
	Table int
	// Scale and Chains size one round's campaign (harness.Params).
	Scale, Chains int
	// Store attaches a fresh result store directory to each round.
	Store bool
	// Warm makes set-up fill the round's store with a cold run of the
	// same campaign; the measured process then reruns it against the
	// store in a fresh process.
	Warm bool
	// MaxRounds bounds the rounds of one run: from MinRounds on, rounds
	// continue until the measured time reaches --seconds.
	MaxRounds int
}

// MinRounds is the fewest rounds a run makes.
const MinRounds = 4

// Procs is the GOMAXPROCS of every worker process, and workers run one
// at a time, so a run keeps one CPU busy. On a 2-vCPU host that keeps the
// timing steady: with both busy, the same Table 4 round's measured time
// varied with a coefficient of variation of 0.21-0.25 and the host took
// 18% of the CPU time as steal, against 0.11-0.13 and 3% with one; and
// rounds measured right after 30 s of load on both CPUs took 4-28%
// longer than after 20 s idle (four trials).
const Procs = 1

// WarmReruns is how many fresh processes rerun a warm round against the
// store its set-up filled; each is measured. A cold fill takes about four
// times as long as a warm rerun, so a second rerun per fill nearly halves
// a warm run's set-up time per measured second.
const WarmReruns = 2

// Threads caps generated-kernel thread counts in every workload.
const Threads = 32

// BaseFuel is every workload's per-thread step budget, a tenth of
// device.DefaultFuel. At the default budget a launch may run ten times
// longer, a few long launches take most of a round's time and a round's
// cost varies severalfold between seeds, so a run measures too few cases
// for a steady rate. The cut changes the mix: launches that would run
// long time out instead. README.md gives the timeout share of exec time
// under both budgets.
const BaseFuel = 29_000

var workloads = []Workload{
	{Name: "t4-cold", Table: 4, Scale: 1, Store: true, MaxRounds: 96},
	{Name: "t5-warm", Table: 5, Scale: 1, Store: true, Warm: true, MaxRounds: 64},
	{Name: "fuzz-guided", Table: harness.FuzzTable, Scale: 5, Chains: 4, MaxRounds: 64},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Params returns the campaign of round r of a run with the given seed.
// Rounds and seeds are spaced far apart so their generator seed ranges
// (each campaign draws candidates upward from its seed, and Table 4 adds
// 1000003 per mode) never overlap.
func (w Workload) Params(seed int64, round int) harness.Params {
	return harness.Params{
		Table:    w.Table,
		Scale:    w.Scale,
		Seed:     seed*10_000_019 + int64(round)*10_007,
		Threads:  Threads,
		Chains:   w.Chains,
		BaseFuel: BaseFuel,
		Fuel:     harness.DefaultFuelParam(),
	}
}

// CaseCount is the number of campaign cases in one round: kernels for
// Table 4, bases for Table 5, steps for the fuzzing campaign.
func (w Workload) CaseCount() int {
	n, err := harness.CampaignCases(w.Params(1, 0))
	if err != nil {
		panic(err)
	}
	return n
}

// RoundRef is the reference record set of one round: each case's record
// in case order.
type RoundRef struct {
	Params  harness.Params    `json:"params"`
	Records []json.RawMessage `json:"records"`
}

// RefFile is a checked-in reference: every round a run of the workload
// with the given seed can reach.
type RefFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Source names how the records were produced.
	Source string     `json:"source"`
	Rounds []RoundRef `json:"rounds"`
	// ShardMismatch lists the rounds whose 2-shard split and merge did
	// not reproduce the direct run's records (fuzzing campaign only).
	ShardMismatch []ShardMismatch `json:"shard_mismatch,omitempty"`
}

// ShardMismatch is one round whose 2-shard split and merge disagreed
// with the direct run, and the cases that differed.
type ShardMismatch struct {
	Round int   `json:"round"`
	Cases []int `json:"cases"`
}

// refPath is where the reference of (workload, seed) lives, relative to
// the benchmark directory.
func refPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, "refs", fmt.Sprintf("%s.seed%d.json.gz", workload, seed))
}

// loadRef reads a checked-in reference; ok is false when none exists.
func loadRef(path string) (*RefFile, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	var rf RefFile
	if err := json.NewDecoder(zr).Decode(&rf); err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, true, nil
}

func writeRef(path string, rf *RefFile) error {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(rf); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// canonical re-encodes a JSON value with sorted object keys, so records
// compare by content whatever produced their bytes.
func canonical(raw json.RawMessage) ([]byte, bool) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, false
	}
	b, err := json.Marshal(v)
	return b, err == nil
}

// diffCases returns the indices of the want cases that got lacks or
// holds differently.
func diffCases(got, want []json.RawMessage) []int {
	var out []int
	for i := range want {
		if i >= len(got) || countFailed(got[i:i+1], want[i:i+1]) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// countFailed compares a round's records with the reference records and
// returns how many of the want cases are missing, unparsable or differ.
// got may be shorter than want or hold nil entries for missing cases.
func countFailed(got, want []json.RawMessage) int {
	failed := 0
	for i, w := range want {
		if i >= len(got) || got[i] == nil {
			failed++
			continue
		}
		g, okg := canonical(got[i])
		r, okr := canonical(w)
		if !okg || !okr || !bytes.Equal(g, r) {
			failed++
		}
	}
	return failed
}
