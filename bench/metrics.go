package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"schedcomp/internal/heuristics"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the library or the service sees.
// Every workload reports every one of them; README.md says what each
// means on each workload and why a bound is wider than 0.10.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"schedules_per_s", "1/s", "higher", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"ok_ratio", "fraction", "higher", 0.01},
	{"proven_share", "fraction", "higher", 0.25},
	{"gap_mean_pct", "%", "lower", 0.20},
}

// analyses are the memoized dag analyses, in the order the traced run
// times them on a cold graph.
var analyses = []string{"csr", "topo", "blevels", "blevels_nocomm", "tlevels", "alap", "critical_path", "descendants", "ancestors"}

// perLayer lists the traced run's metrics, one or more per module.
func perLayer() []metricDef {
	us := func(name string) metricDef { return metricDef{Name: name, Unit: "us", Better: "lower"} }
	out := []metricDef{
		us("dag.decode_us"),
		{Name: "dag.decode_allocs", Unit: "count", Better: "lower"},
		us("dag.canon_us"),
		us("dag.canon_clone_us"),
		us("dag.analyses_us"),
	}
	for _, a := range analyses {
		out = append(out, us("dag."+a+"_us"))
	}
	names := heuristics.Names()
	for _, h := range names {
		out = append(out, us("heuristics."+h+".run_us"))
	}
	for _, h := range names {
		out = append(out, us("heuristics."+h+".place_us"))
	}
	for _, h := range names {
		out = append(out, metricDef{Name: "heuristics." + h + ".allocs", Unit: "count", Better: "lower"})
	}
	return append(out,
		us("sched.build_us"),
		us("sched.validate_us"),
		us("schedcache.hit_us"),
		us("schedcache.miss_us"),
		metricDef{Name: "schedcache.hit_ratio", Unit: "fraction", Better: "higher"},
		us("serve.unloaded_us"),
		us("serve.residual_us"),
		metricDef{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower"},
		metricDef{Name: "anytime.generations", Unit: "count", Better: "higher"},
		metricDef{Name: "anytime.improvements", Unit: "count", Better: "higher"},
		metricDef{Name: "anytime.overshoot_p99", Unit: "fraction", Better: "lower"},
		us("heuristics.portfolio_us"),
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
}

// value is one measured metric as the result line reports it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The result file holds all of it;
// the last line of standard output holds only the four keys of line.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   int              `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Details holds what a reader needs to trust the metrics: sample
	// counts, the quantile a tail metric reports, per-repetition values,
	// hashes, and the first failures.
	Details map[string]any `json:"details"`
	// spans is a traced run's trace, written beside the result.
	spans []span
}

type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newResult(workload string, cfg config) *result {
	return &result{
		Workload: workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Metrics: map[string]value{}, Details: map[string]any{},
	}
}

// set records a metric under its declared unit. A value that is not
// finite (a tail quantile reaching failed requests) is reported as
// 1e9 so the line stays valid JSON; such a run is never correct.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				v = 1e9
			}
			r.Metrics[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// fail counts failed operations and keeps the first few reasons.
func (r *result) fail(n int, err error) {
	r.Failed += n
	const keep = 10
	errs, _ := r.Details["failures"].([]string)
	if len(errs) < keep {
		r.Details["failures"] = append(errs, err.Error())
	}
}

// finish checks that the run reports exactly the declared metrics and
// settles Correct.
func (r *result) finish() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	missing := 0
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			missing++
			r.fail(0, fmt.Errorf("metric %s not measured", d.Name))
		}
	}
	r.Correct = r.Failed == 0 && missing == 0 && r.Attempted > 0
}

// print writes every metric by name with its unit, then the result line.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d trace=%v: attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if errs, ok := r.Details["failures"].([]string); ok {
		for _, e := range errs {
			fmt.Fprintf(w, "  failure: %s\n", e)
		}
	}
	data, err := json.Marshal(line{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// save writes the whole result into dir and returns the file's path.
func (r *result) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-t%d-s%d-%d.json", r.Workload, b2i(r.Trace), r.Seed, time.Now().UnixNano()))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if r.spans == nil {
		return path, nil
	}
	if data, err = json.Marshal(r.spans); err != nil {
		return "", err
	}
	return path, os.WriteFile(strings.TrimSuffix(path, ".json")+".spans.json", append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
