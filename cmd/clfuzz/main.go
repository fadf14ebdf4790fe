// Clfuzz is the open-ended coverage-guided fuzzing loop: the same
// feedback engine as cltables -fuzz (VM edge bitmaps, ranked corpus,
// swarm feature subsets, EMI/constant/operator/splice mutations), but
// run round after round until interrupted instead of to a fixed budget.
// Each round advances every chain one step through campaign.Stream;
// wrong-code mismatches are reported as they appear, and a coverage
// progress line prints every -report rounds. SIGINT stops the loop
// cleanly and prints the final summary. The loop is deterministic for a
// given -seed: stopping after N rounds observes a prefix of the
// infinite run, identical to cltables -fuzz -scale N.
//
// Usage:
//
//	clfuzz -chains 4 -seed 1
//	clfuzz -rounds 200 -report 20
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"clfuzz/internal/campaign"
	"clfuzz/internal/corpus"
	"clfuzz/internal/device"
	"clfuzz/internal/exec"
	"clfuzz/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clfuzz: ")
	chainsN := flag.Int("chains", 0, "independent fuzzing chains (default 4)")
	seed := flag.Int64("seed", 1, "campaign seed")
	threads := flag.Int("threads", 64, "maximum thread count for generated kernels")
	rounds := flag.Int("rounds", 0, "stop after this many rounds (0 = run until interrupted)")
	report := flag.Int("report", 10, "print a coverage progress line every N rounds")
	engineFlag := flag.String("engine", "auto",
		"evaluation engine: vm, tree, or auto (the tree engine collects no coverage, degrading the loop to pure swarm-random generation)")
	fuelFlag := flag.String("fuel", "auto",
		"fuel model: v1 (per-instruction), v2 (per-superinstruction on the fused VM program), or auto (CLFUZZ_FUEL or v1)")
	storeDir := flag.String("store", "",
		"disk-backed result store directory shared across processes (default $CLFUZZ_STORE; empty disables)")
	flag.Parse()
	engine, err := exec.ParseEngine(*engineFlag)
	if err != nil {
		log.Fatal(err)
	}
	device.DefaultEngine = engine
	fuel, err := exec.ParseFuelModel(*fuelFlag)
	if err != nil {
		log.Fatal(err)
	}
	if fuel != exec.FuelAuto {
		device.DefaultFuelModel = fuel
	}
	if _, err := campaign.EnableStore(*storeDir); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p := harness.Params{Table: harness.FuzzTable, Seed: *seed, Threads: *threads, Chains: *chainsN, Fuel: harness.DefaultFuelParam()}
	chains := harness.FuzzChains(campaign.Default, p)
	cover := new(exec.CoverMap)
	cases, mismatches := 0, 0
	corpusTotal := func() int {
		n := 0
		for _, c := range chains {
			n += c.CorpusLen()
		}
		return n
	}
	progress := func(round int) {
		fmt.Printf("round %d: cases=%d edges=%d corpus=%d mismatches=%d\n",
			round, cases, cover.Count(), corpusTotal(), mismatches)
	}

	round, lastReport := 0, -1
	for ; ctx.Err() == nil && (*rounds == 0 || round < *rounds); round++ {
		campaign.Stream(ctx, len(chains), func(i, _ int) corpus.StepRecord {
			return chains[i].Step(ctx, round)
		}, func(_ int, rec corpus.StepRecord) {
			if rec.Outcome == device.Canceled.String() {
				return
			}
			cases++
			cover.AddEdges(rec.Edges)
			if rec.Mismatch {
				mismatches++
				fmt.Printf("MISMATCH chain=%d step=%d origin=%s features=%s src_hash=%#x\n",
					rec.Chain, rec.Step, rec.Origin, rec.Features, rec.SrcHash)
			}
		})
		if *report > 0 && (round+1)%*report == 0 {
			progress(round + 1)
			lastReport = round + 1
		}
	}
	if round != lastReport {
		progress(round)
	}
	sites := make([][exec.CoverNumSites]uint64, 0, len(chains))
	var total [exec.CoverNumSites]uint64
	for _, c := range chains {
		sites = append(sites, c.Cover().SiteHits())
	}
	for _, s := range sites {
		for i, v := range s {
			total[i] += v
		}
	}
	fmt.Printf("defect sites: deref-store=%d arrow-store=%d dead-loop=%d\n",
		total[exec.CoverSiteDerefStore], total[exec.CoverSiteArrowStore], total[exec.CoverSiteDeadLoop])
	if ctx.Err() != nil {
		log.Printf("interrupted after %d rounds", round)
	}
}
