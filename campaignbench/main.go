// Command campaignbench is the campaign benchmark: it runs a named
// workload through the public campaign path (harness.RunShard, then
// harness.MergeShards) in fresh worker processes, checks every case
// record against a reference, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a separate traced run — as one
// JSON object on the last line of standard output.
//
//	campaignbench --workload t4-cold --seed 1 --seconds 15 --trace 0
//	campaignbench refs --workload t4-cold --seed 1
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "refs":
			os.Exit(refsMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// Run budgets: no new measured round starts after softBudget, and every
// worker is killed at hardBudget, so a run ends within the 180 s a run
// may take.
const (
	softBudget  = 90 * time.Second
	hardBudget  = 170 * time.Second
	traceRounds = 3
)

// benchDir is the benchmark's directory relative to the checkout root
// (the working directory of every run).
func benchDir() string {
	if d := os.Getenv("CAMPAIGNBENCH_DIR"); d != "" {
		return d
	}
	return "campaignbench"
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// proc is one finished worker process.
type proc struct {
	out     *WorkerOut
	setupS  float64 // spawn to the end of the worker's set-up
	wallS   float64 // spawn to exit
	maxRSS  float64 // MB
	cpuS    float64 // user + system
	failure string
}

// round is one round of a run.
type round struct {
	idx      int
	fill     *proc   // warm workloads: the cold run that filled the store
	measured []*proc // one process, or WarmReruns for warm workloads
	traced   *proc
	store    string
	ref      []json.RawMessage
}

type bench struct {
	w     Workload
	seed  int64
	exe   string
	work  string
	ctx   context.Context
	start time.Time
}

func benchMain(args []string) int {
	fl := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: t4-cold, t5-warm or fuzz-guided")
	seed := fl.Int64("seed", 1, "run seed; every campaign input derives from it")
	seconds := fl.Float64("seconds", 10, "measured time to accumulate before the run stops starting rounds")
	trace := fl.Int("trace", 0, "1 runs the traced replica and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "campaignbench: unknown workload %q\n", *name)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	// An interrupted run kills its workers (CommandContext) before exiting.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sig, hardBudget)
	defer cancel()
	b := &bench{w: w, seed: *seed, exe: exe, ctx: ctx, start: time.Now(),
		work: filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid()))}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	res, err := b.run(*seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		return 1
	}
	info, _ := json.Marshal(map[string]any{"run": runInfo(w, *seed, *seconds, *trace == 1)})
	fmt.Println(string(info))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

func (b *bench) run(seconds float64, traced bool) (*Result, error) {
	rf, haveRef, err := loadRef(refPath(benchDir(), b.w.Name, b.seed))
	if err != nil {
		return nil, err
	}
	var rounds []*round
	measured := 0.0
	for r := 0; r < b.w.MaxRounds; r++ {
		if r >= MinRounds && (measured >= seconds || time.Since(b.start) > softBudget) {
			break
		}
		rd, err := b.round(r)
		if err != nil {
			return nil, err
		}
		if rd.store != "" && (!traced || r >= traceRounds) {
			// Only traced rounds read a round's store again; dropping the
			// others keeps a run's disk use to one round's store.
			os.RemoveAll(rd.store)
		}
		for _, p := range rd.measured {
			measured += p.out.MeasuredS
		}
		rounds = append(rounds, rd)
	}
	// References: the checked-in records where this seed has them,
	// otherwise an independent computation of the same round, made after
	// the measured rounds, one process at a time.
	var missing []*round
	for _, rd := range rounds {
		p := b.w.Params(b.seed, rd.idx)
		switch {
		case haveRef && rd.idx < len(rf.Rounds) && rf.Rounds[rd.idx].Params == p:
			rd.ref = rf.Rounds[rd.idx].Records
		case b.w.Warm:
			rd.ref = rd.fill.out.Records
		default:
			missing = append(missing, rd)
		}
	}
	// Table 4 is referenced on the tree engine. The fuzzing campaign gets
	// a second direct run: the 2-shard split is not a reference there,
	// because coverage site counts of crashing launches depend on the
	// goroutine schedule (see README.md).
	mode := modeMeasure
	if b.w.Table == 4 {
		mode = modeTree
	}
	for _, rd := range missing {
		ref, err := b.spawn(rd.idx, mode, "")
		if err != nil {
			return nil, err
		}
		rd.ref = ref.out.Records
	}
	if traced {
		for _, rd := range rounds[:min(traceRounds, len(rounds))] {
			p, err := b.spawn(rd.idx, modeTraced, rd.store)
			if err != nil {
				return nil, err
			}
			rd.traced = p
		}
	}
	res := &Result{Correct: true, Metrics: map[string]Metric{}}
	var problems []string
	cases := b.w.CaseCount()
	for _, rd := range rounds {
		if len(rd.ref) != cases {
			problems = append(problems, fmt.Sprintf("round %d: reference has %d records, want %d", rd.idx, len(rd.ref), cases))
		}
		procs := rd.measured[:len(rd.measured):len(rd.measured)]
		if rd.traced != nil {
			procs = append(procs, rd.traced)
		}
		for _, p := range procs {
			res.Attempted += cases
			failed := countFailed(p.out.Records, rd.ref)
			if failed > 0 {
				problems = append(problems, fmt.Sprintf("round %d: cases %v differ from the reference", rd.idx, diffCases(p.out.Records, rd.ref)))
			}
			if p.failure != "" {
				problems = append(problems, fmt.Sprintf("round %d: %s", rd.idx, p.failure))
				failed = cases
			}
			res.Failed += failed
		}
	}
	if res.Failed > 0 || len(problems) > 0 {
		res.Correct = false
	}
	for _, msg := range problems {
		fmt.Fprintln(os.Stderr, "campaignbench:", msg)
	}
	if traced {
		b.layerMetrics(res, rounds)
	} else {
		b.endToEnd(res, rounds)
	}
	return res, nil
}

// round runs round r: for warm workloads the filling cold run first and
// then WarmReruns measured processes, otherwise one measured process.
func (b *bench) round(r int) (*round, error) {
	rd := &round{idx: r}
	if b.w.Store {
		rd.store = filepath.Join(b.work, fmt.Sprintf("store%d", r))
	}
	if b.w.Warm {
		fill, err := b.spawn(r, modeMeasure, rd.store)
		if err != nil {
			return nil, err
		}
		rd.fill = fill
	}
	runs := 1
	if b.w.Warm {
		runs = WarmReruns
	}
	for range runs {
		p, err := b.spawn(r, modeMeasure, rd.store)
		if err != nil {
			return nil, err
		}
		if o := p.out; b.w.Warm && (o.DiskMisses != 0 || o.DiskHits == 0 || o.Launches != 0) {
			// Warm isolation: a fresh process must be served entirely by
			// the disk tier, executing nothing.
			p.failure = fmt.Sprintf("warm rerun not served from disk: disk hits %d, misses %d, launches %d",
				o.DiskHits, o.DiskMisses, o.Launches)
		}
		rd.measured = append(rd.measured, p)
	}
	return rd, nil
}

// spawn runs one worker process for round r, with GOMAXPROCS set to
// Procs, and collects its report.
func (b *bench) spawn(r int, mode, storeDir string) (*proc, error) {
	out := filepath.Join(b.work, fmt.Sprintf("r%d-%s-%d.json", r, mode, time.Now().UnixNano()))
	cmd := exec.CommandContext(b.ctx, b.exe, "worker", "-workload", b.w.Name, "-seed", fmt.Sprint(b.seed),
		"-round", fmt.Sprint(r), "-mode", mode, "-store", storeDir, "-out", out)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", Procs))
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("round %d %s worker: %w", r, mode, err)
	}
	wall := time.Since(t0).Seconds()
	raw, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	os.Remove(out)
	var wo WorkerOut
	if err := json.Unmarshal(raw, &wo); err != nil {
		return nil, fmt.Errorf("round %d %s worker report: %w", r, mode, err)
	}
	p := &proc{out: &wo, wallS: wall, setupS: float64(wo.ReadyNS-t0.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSS = float64(ru.Maxrss) / 1024
		p.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	return p, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// endToEnd fills the untraced run's metrics: the geometric mean over
// measured processes of the cases each completed per second of its
// measured phase, the median peak RSS of those processes and the median
// set-up time of the rounds (the fill, if any, and the first measured
// process's start). Each process counts once, however long it ran, and
// on a log scale: a few rounds that draw slow kernels carry much of a
// run's time, so a rate over all cases and seconds would depend mostly
// on how many of them a seed draws, and an arithmetic mean of rates on
// how many very small kernels it draws. The error rate is the result's
// failed ÷ attempted.
func (b *bench) endToEnd(res *Result, rounds []*round) {
	var rates, rss, setups []float64
	for _, rd := range rounds {
		for _, p := range rd.measured {
			rates = append(rates, float64(p.out.Cases)/p.out.MeasuredS)
			rss = append(rss, p.maxRSS)
		}
		setup := rd.measured[0].setupS
		if rd.fill != nil {
			setup += rd.fill.wallS
		}
		setups = append(setups, setup)
	}
	res.Metrics["cases_per_s"] = Metric{geomean(rates), "1/s"}
	res.Metrics["setup_s"] = Metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = Metric{median(rss), "MB"}
}

func runInfo(w Workload, seed int64, seconds float64, traced bool) map[string]any {
	return map[string]any{
		"workload": w.Name, "seed": seed, "seconds": seconds, "trace": traced,
		"size": map[string]any{
			"table": w.Table, "scale": w.Scale, "chains": w.Chains, "threads": Threads,
			"cases_per_round": w.CaseCount(), "base_fuel": BaseFuel,
			"min_rounds": MinRounds, "max_rounds": w.MaxRounds,
		},
		"host": map[string]any{
			"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": Procs,
			"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		},
		"commit": os.Getenv("CAMPAIGNBENCH_COMMIT"),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
