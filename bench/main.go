// Command bench is schedcomp's benchmark. It measures the library and
// the service end to end on four workloads and, in a separate traced
// run, layer by layer; it checks every output it measures. run.sh
// builds it and cmd/schedserve from the checkout and runs it from the
// checkout root:
//
//	bash bench/run.sh                     # every workload untraced, then traced
//	bash bench/run.sh -workload serve_dup -seed 7 -seconds 15 -trace 0
//	bash bench/run.sh -compare parentDir changeDir
//
// A run of one workload prints every metric by name with its unit,
// writes the whole result to a JSON file, and ends its standard output
// with one JSON line: correct, attempted, failed and metrics. README.md
// describes the workloads, the metrics and how to compare two commits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	// Link in every heuristic: the corpus runs all of them.
	_ "schedcomp/internal/heuristics/clans"
	_ "schedcomp/internal/heuristics/dcp"
	_ "schedcomp/internal/heuristics/dls"
	_ "schedcomp/internal/heuristics/dsc"
	_ "schedcomp/internal/heuristics/etf"
	_ "schedcomp/internal/heuristics/ez"
	_ "schedcomp/internal/heuristics/hu"
	_ "schedcomp/internal/heuristics/lc"
	_ "schedcomp/internal/heuristics/mcp"
	_ "schedcomp/internal/heuristics/mh"
	_ "schedcomp/internal/heuristics/random"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
}

// workloads in the order a full invocation runs them.
var workloads = []string{"corpus", "serve_unique", "serve_dup", "serve_best"}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: corpus, serve_unique, serve_dup or serve_best; empty runs all four untraced, then all four traced")
	seed := fs.Int64("seed", goldenSeed, "seed of every workload's inputs")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics in a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "directory for result files (default: results/ beside the binary)")
	compare := fs.Bool("compare", false, "compare two directories of result files: -compare parentDir changeDir")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parentDir changeDir")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1 and -seconds a positive count")
		return 2
	}
	if *out == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		*out = filepath.Join(filepath.Dir(exe), "results")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *workload == "" {
		return runAll(cfg, *out, stdout)
	}
	res, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	path, err := res.save(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: save result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result written to %s\n", path)
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg config) (*result, error) {
	res := newResult(name, cfg)
	var err error
	sp, isServe := serveSpecs[name]
	switch {
	case name != "corpus" && !isServe:
		return nil, fmt.Errorf("unknown workload (have %v)", workloads)
	case cfg.trace:
		err = runTraced(name, cfg, res)
	case isServe:
		err = runServe(cfg, sp, res)
	default:
		err = runCorpus(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// runAll runs every workload untraced and then traced, each in its own
// child process, so no run inherits another's heap, caches or threads.
func runAll(cfg config, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-out", out)
			cmd.Stdout = stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					fmt.Fprintln(os.Stderr, "bench:", err)
				}
				code = 1
			}
		}
	}
	return code
}
