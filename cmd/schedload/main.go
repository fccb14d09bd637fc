// Command schedload is a closed-loop load generator for schedserve. It
// drives /schedule (or /schedule/batch with -batch) from -conc
// concurrent clients at an optional target rate, validates every
// returned schedule by re-timing it under the execution model, and
// reports latency quantiles (served and shed separately) and the shed
// rate.
//
// The graphs come from the paper's corpus generator, so the offered
// load has the same shape mix the benchmarks use. -dup sets the
// fraction of requests repeating earlier content — identical, renamed,
// and relabeled isomorphic copies of a fixed pool — to exercise the
// server's content-addressed schedule cache; the rest are
// content-unique weight perturbations. Responses the server marks as
// cache hits are re-validated against a fresh local rebuild exactly
// like uncached ones, and the report carries hit/coalesced/miss counts.
//
// Exit status is 1 if any response failed validation or any transport
// error occurred; load shedding (429) and request timeouts (503) are
// expected behaviour under overload and do not fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("schedload", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "schedserve base URL")
		rps       = fs.Float64("rps", 0, "target request rate across all clients (0 = closed loop, as fast as responses return)")
		conc      = fs.Int("conc", 8, "concurrent clients")
		dur       = fs.Duration("dur", 10*time.Second, "how long to send load")
		heuristic = fs.String("heuristic", "MCP", "heuristic to request")
		batch     = fs.Int("batch", 0, "graphs per request via /schedule/batch (0 or 1 = single /schedule requests)")
		seed      = fs.Int64("seed", 1, "corpus seed")
		minNodes  = fs.Int("min-nodes", 24, "minimum graph size")
		maxNodes  = fs.Int("max-nodes", 48, "maximum graph size")
		dup       = fs.Float64("dup", 0, "fraction of requests repeating pool content (identical/renamed/relabeled copies); the rest are content-unique")
		quality   = fs.Bool("quality", false, "request the anytime quality tier (?quality=best) instead of a single heuristic")
		budget    = fs.Duration("budget", 50*time.Millisecond, "refinement budget per quality request (only with -quality)")
		report    = fs.String("report", "", "write the JSON report to this file as well as stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var budgetSet, heuristicSet bool
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "budget":
			budgetSet = true
		case "heuristic":
			heuristicSet = true
		}
	})
	switch {
	case budgetSet && !*quality:
		log.Print("schedload: -budget requires -quality")
		return 2
	case *quality && heuristicSet:
		log.Print("schedload: -quality runs the whole portfolio; drop -heuristic")
		return 2
	case *quality && *batch > 1:
		log.Print("schedload: the quality tier is single-request only; drop -batch")
		return 2
	case *quality && *budget <= 0:
		log.Printf("schedload: budget %v must be positive", *budget)
		return 2
	}

	cfg := loadConfig{
		Addr: *addr, RPS: *rps, Conc: *conc, Dur: *dur,
		Heuristic: *heuristic, Batch: *batch,
		Seed: *seed, MinNodes: *minNodes, MaxNodes: *maxNodes,
		Dup: *dup, Quality: *quality, Budget: *budget,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		log.Printf("schedload: %v", err)
		return 1
	}
	rep.Print(out)
	if *report != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Printf("schedload: marshal report: %v", err)
			return 1
		}
		if err := os.WriteFile(*report, append(data, '\n'), 0o644); err != nil {
			log.Printf("schedload: write report: %v", err)
			return 1
		}
	}
	if rep.ValidationFailures > 0 || rep.TransportErrors > 0 {
		fmt.Fprintln(out, "schedload: FAIL (validation or transport errors)")
		return 1
	}
	return 0
}
