package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// Layers are the program's modules in the order the per-layer metrics
// list them. sema, opt, code and store are only reachable inside another
// layer's call; their calls and self times come from replay spans and
// are not part of the wall-time sum.
var Layers = []string{
	"generator", "emi", "corpus", "parser", "sema", "opt", "code",
	"device", "exec", "oracle", "campaign", "store", "harness",
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics fills the traced run's metrics. Span-derived values are
// totals over the traced rounds; program-derived counts (engine, result
// cache, store, runtime) come from the first measured process of the same
// rounds, and store writes include the warm workloads' fills.
func (b *bench) layerMetrics(res *Result, rounds []*round) {
	var a Attribution
	counts := map[string]float64{}
	var tracedWall, untracedWall float64
	var launches, rHits, rMisses, dHits, dMisses, reads, writes, corrupt, storeBytes float64
	var cpu, alloc, mallocs, gcs, pause, recordBytes float64
	for _, rd := range rounds {
		if rd.traced == nil {
			continue
		}
		t := rd.traced.out.Trace
		a.Merge(Attribute(t.Spans, t.WallS))
		for k, v := range t.Counts {
			counts[k] += v
		}
		tracedWall += t.WallS
		recordBytes += float64(rd.traced.out.RecordBytes)
		m := rd.measured[0]
		o := m.out
		untracedWall += o.MeasuredS
		launches += float64(o.Launches)
		rHits += float64(o.ResultHits)
		rMisses += float64(o.ResultMisses)
		dHits += float64(o.DiskHits)
		dMisses += float64(o.DiskMisses)
		reads += float64(o.Store.Hits)
		writes += float64(o.Store.Writes)
		corrupt += float64(o.Store.Corrupt)
		storeBytes += float64(o.StoreBytes)
		if rd.fill != nil {
			writes += float64(rd.fill.out.Store.Writes)
		}
		cpu += m.cpuS
		alloc += float64(o.AllocBytes)
		mallocs += float64(o.Mallocs)
		gcs += float64(o.GCCycles)
		pause += float64(o.GCPauseNS)
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = Metric{v, unit} }
	replay := 0.0
	for _, l := range Layers {
		w, r := a.Layers.get(l), a.Replay.get(l)
		put(l+".calls", float64(w.Calls+r.Calls), "count")
		put(l+".self_s", w.Self+r.Self, "s")
		replay += r.Self
	}
	put("generator.accept_frac", frac(counts["generator.accepted"], counts["generator.generated"]), "ratio")
	put("emi.distinct_frac", frac(counts["emi.distinct"], counts["emi.variants"]), "ratio")
	steps := a.Fns.get("corpus/(*Chain).Step replica").Durations
	put("corpus.step_p50_ms", 1e3*quantile(steps, 0.5), "ms")
	put("corpus.step_p90_ms", 1e3*quantile(steps, 0.9), "ms")
	put("parser.hit_frac", frac(counts["parser.hits"], counts["parser.gets"]), "ratio")
	put("parser.kb_per_s", frac(counts["parser.bytes"]/1024, a.Layers.get("parser").Self), "KB/s")
	put("code.lower_self_s", a.Fns.get("code/code.Lower").Self, "s")
	put("code.fuse_self_s", a.Fns.get("code/code.Fuse").Self, "s")
	put("code.instrs", counts["code.instrs"], "count")
	put("code.fused_instrs", counts["code.fused_instrs"], "count")
	put("device.back_hit_frac", frac(counts["device.back_hits"], counts["device.back_hits"]+counts["device.back_misses"]), "ratio")
	runs := a.Fns.get("exec/Kernel.Run")
	put("exec.launches", launches, "count")
	put("exec.launch_p50_us", 1e6*quantile(runs.Durations, 0.5), "us")
	put("exec.launch_p99_us", 1e6*quantile(runs.Durations, 0.99), "us")
	put("exec.timeouts", counts["exec.timeouts"], "count")
	put("exec.timeout_frac", frac(counts["exec.timeout_s"], runs.Self), "ratio")
	put("campaign.units", counts["campaign.units"], "count")
	put("campaign.exec_frac", frac(launches, counts["campaign.units"]), "ratio")
	put("campaign.result_hit_frac", frac(rHits, rHits+rMisses), "ratio")
	put("campaign.disk_hit_frac", frac(dHits, dHits+dMisses), "ratio")
	put("store.reads", reads, "count")
	put("store.writes", writes, "count")
	put("store.corrupt", corrupt, "count")
	put("store.mb", storeBytes/(1<<20), "MB")
	put("harness.record_kb", recordBytes/1024, "KB")
	put("runtime.cpu_s", cpu, "s")
	put("runtime.alloc_mb", alloc/(1<<20), "MB")
	put("runtime.mallocs", mallocs, "count")
	put("runtime.gc_cycles", gcs, "count")
	put("runtime.gc_pause_ms", pause/1e6, "ms")
	put("traced_wall_s", tracedWall, "s")
	put("unattributed_s", a.Unattributed, "s")
	put("replay_s", replay, "s")
	put("trace_overhead_frac", frac(tracedWall, untracedWall)-1, "ratio")
	put("error_rate", frac(float64(res.Failed), float64(res.Attempted)), "ratio")
	b.writeTrace(rounds)
}

// writeTrace writes the traced rounds' spans out at the end of the run,
// one JSON file per round under .bench_build/traces.
func (b *bench) writeTrace(rounds []*round) {
	dir := filepath.Join(".bench_build", "traces")
	for _, rd := range rounds {
		if rd.traced == nil {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-round%d.spans.json", b.w.Name, b.seed, rd.idx))
		if err := writeJSON(path, rd.traced.out.Trace.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench: trace:", err)
		}
	}
}
