package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clfuzz/internal/campaign"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/harness"
	"clfuzz/internal/store"
)

// Worker modes: how one round's campaign is executed in a worker process.
const (
	modeMeasure = "measure" // RunShard + MergeShards: measured runs and warm fills
	modeTree    = "tree"    // reference run on the tree-walking engine
	modeShards  = "shards"  // 2-shard split and merge, compared when writing references
	modeTraced  = "traced"  // the benchmark's traced replica of the campaign
)

// WorkerOut is what a worker process reports back, as JSON in its -out
// file.
type WorkerOut struct {
	// ReadyNS is the wall clock (Unix ns) at which set-up ended and the
	// measured phase began.
	ReadyNS   int64   `json:"ready_ns"`
	MeasuredS float64 `json:"measured_s"`
	Cases     int     `json:"cases"`
	// Records holds each case's record in case order; nil is missing.
	Records []json.RawMessage `json:"records"`

	// Program-side counters read after the measured phase: engine
	// counters and the caches' and store's Stats methods.
	Launches     int64       `json:"launches"`
	ResultHits   uint64      `json:"result_hits"`
	ResultMisses uint64      `json:"result_misses"`
	DiskHits     uint64      `json:"disk_hits"`
	DiskMisses   uint64      `json:"disk_misses"`
	Store        store.Stats `json:"store"`
	StoreBytes   int64       `json:"store_bytes"`

	// Runtime deltas over the measured phase.
	AllocBytes  uint64 `json:"alloc_bytes"`
	Mallocs     uint64 `json:"mallocs"`
	GCCycles    uint32 `json:"gc_cycles"`
	GCPauseNS   uint64 `json:"gc_pause_ns"`
	RecordBytes int    `json:"record_bytes"`

	Trace *TraceOut `json:"trace,omitempty"`
}

func workerMain(args []string) int {
	fl := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "run seed")
	round := fl.Int("round", 0, "round index")
	mode := fl.String("mode", modeMeasure, "measure, tree, shards or traced")
	storeDir := fl.String("store", "", "result store directory")
	out := fl.String("out", "", "output file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *out == "" {
		fmt.Fprintln(os.Stderr, "worker: bad -workload or missing -out")
		return 2
	}
	res, err := runWorker(w, w.Params(*seed, *round), *mode, *storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(*out, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	return 0
}

func runWorker(w Workload, p harness.Params, mode, storeDir string) (*WorkerOut, error) {
	var st *store.Store
	if storeDir != "" && mode != modeTree && mode != modeShards {
		s, err := campaign.EnableStore(storeDir)
		if err != nil {
			return nil, err
		}
		st = s
	}
	if mode == modeTree {
		device.DefaultEngine = exec.EngineTree
	}
	res := &WorkerOut{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.ReadyNS = time.Now().UnixNano()
	t0 := time.Now()
	var err error
	switch mode {
	case modeMeasure, modeTree:
		err = runCampaign(res, p, 1)
	case modeShards:
		err = runCampaign(res, p, 2)
	case modeTraced:
		res.Trace, err = runTraced(w, p, res)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	res.MeasuredS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	_, res.Launches = campaign.Default.Counters()
	res.ResultHits, res.ResultMisses, _ = campaign.Default.Results.Stats()
	res.DiskHits, res.DiskMisses = campaign.Default.Results.DiskStats()
	if st != nil {
		res.Store = st.Stats()
		res.StoreBytes = dirBytes(storeDir)
	}
	for _, r := range res.Records {
		res.RecordBytes += len(r)
	}
	return res, nil
}

// runCampaign runs the campaign as `of` shards, in order, through the
// public campaign path, and merges them into the rendered table.
func runCampaign(res *WorkerOut, p harness.Params, of int) error {
	var files []*harness.ShardFile
	for i := 0; i < of; i++ {
		sf, err := harness.RunShard(context.Background(), p, i, of)
		if err != nil {
			return err
		}
		files = append(files, sf)
	}
	if _, err := harness.MergeShards(files); err != nil {
		return err
	}
	res.Cases = files[0].Cases
	res.Records = make([]json.RawMessage, res.Cases)
	for _, sf := range files {
		for _, r := range sf.Records {
			res.Records[r.Index] = r.Data
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir. Unreadable
// entries are skipped: the size is a layer metric, not a check.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
