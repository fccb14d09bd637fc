package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The serve workloads drive a fresh schedserve with default flags over
// loopback from two keep-alive connections in a closed loop (the box
// has two cores; more clients would only queue). Each of serveReps
// repetitions starts its own server, warms it, measures one window and
// stops it; responses are checked after the server has stopped, so the
// checks neither compete with the server for the cores nor let a faster
// sched.Build inflate the served numbers.
const (
	serveReps     = 3
	serveConns    = 2
	serveWarm     = time.Second
	plainLimit    = 25 * time.Millisecond
	qualityBudget = 20 * time.Millisecond
)

// serveSpec is what distinguishes the three serve workloads.
type serveSpec struct {
	// dup is the share of requests drawn from the repeat pool.
	dup float64
	// quality selects ?quality=best instead of ?heuristic=MCP.
	quality bool
}

var serveSpecs = map[string]serveSpec{
	"serve_unique": {},
	"serve_dup":    {dup: 0.8},
	"serve_best":   {quality: true},
}

func (sp serveSpec) path() string {
	if sp.quality {
		return "/schedule?quality=best&budget=" + qualityBudget.String()
	}
	return "/schedule?heuristic=MCP"
}

// limit is the latency within which a served request counts toward
// req_per_s: 25ms for a plain request, twice the budget for a quality
// one.
func (sp serveSpec) limit() time.Duration {
	if sp.quality {
		return 2 * qualityBudget
	}
	return plainLimit
}

// exchange is one request and its response. Request numbers k >= 0
// are stream requests; k < 0 names warm-up body -k-1.
type exchange struct {
	k      int64
	lat    time.Duration
	status int
	cache  string
	body   []byte
	err    error
	// speed is the host's speed while the request ran (hostspeed.go).
	speed float64
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

func post(client *http.Client, url string, body []byte) exchange {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return exchange{lat: time.Since(t0), err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return exchange{lat: time.Since(t0), status: resp.StatusCode, cache: resp.Header.Get("X-Sched-Cache"), body: data, err: err}
}

// drive runs conns closed-loop clients that each take the next request
// number from next until it reports none, and returns every exchange.
func drive(client *http.Client, url string, s source, conns int, next func() (int64, bool)) []exchange {
	var wg sync.WaitGroup
	per := make([][]exchange, conns)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k, ok := next()
				if !ok {
					return
				}
				body, err := s.body(k)
				ex := exchange{err: err}
				if err == nil {
					ex = post(client, url, body)
				}
				ex.k = k
				per[c] = append(per[c], ex)
			}
		}(c)
	}
	wg.Wait()
	var out []exchange
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// until hands out stream request numbers from *k on until end.
func until(k *atomic.Int64, end time.Time) func() (int64, bool) {
	return func() (int64, bool) {
		if !time.Now().Before(end) {
			return 0, false
		}
		return k.Add(1) - 1, true
	}
}

// each hands out the numbers in ks once each.
func each(ks []int64) func() (int64, bool) {
	var i atomic.Int64
	return func() (int64, bool) {
		j := i.Add(1) - 1
		if j >= int64(len(ks)) {
			return 0, false
		}
		return ks[j], true
	}
}

// verdict is the checked outcome of one exchange.
type verdict struct {
	ok      bool
	gapPct  float64
	proven  bool
	quality *quality
}

// checkAll checks every exchange against the graph its request carried,
// on two goroutines, and records each failure in res.
func checkAll(s source, exs []exchange, wantQuality bool, res *result) []verdict {
	out := make([]verdict, len(exs))
	errs := make([]error, len(exs))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(exs); i = int(next.Add(1) - 1) {
				out[i], errs[i] = checkExchange(s, exs[i], wantQuality)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		res.Attempted++
		if err != nil {
			res.fail(1, fmt.Errorf("request %d: %w", exs[i].k, err))
		}
	}
	return out
}

func checkExchange(s source, ex exchange, wantQuality bool) (verdict, error) {
	switch {
	case ex.err != nil:
		return verdict{}, ex.err
	case ex.status != http.StatusOK:
		return verdict{}, fmt.Errorf("status %d: %s", ex.status, bytes.TrimSpace(ex.body))
	}
	g, err := s.graph(ex.k)
	if err != nil {
		return verdict{}, err
	}
	r, err := checkResponse(g, ex.body, wantQuality)
	if err != nil {
		return verdict{}, err
	}
	lb, err := lowerBound(g)
	if err != nil {
		return verdict{}, err
	}
	if r.Quality != nil {
		lb = r.Quality.LowerBound
	}
	return verdict{ok: true, gapPct: 100 * float64(r.Makespan-lb) / float64(lb), proven: r.Makespan == lb, quality: r.Quality}, nil
}

// subWindow is how long the load runs between two timings of the
// host's speed (hostspeed.go); the pause for each timing has no request
// in flight.
const subWindow = 250 * time.Millisecond

// repStats are one repetition's numbers; the window's time and the
// server's CPU time are summed over its sub-windows.
type repStats struct {
	Requests  int     `json:"requests"`
	Served    int     `json:"served"`
	InLimit   int     `json:"in_limit"`
	Hits      int     `json:"cache_hits"`
	Misses    int     `json:"cache_misses"`
	Setup     timings `json:"setup_s"`
	Seconds   timings `json:"seconds"`
	ServerCPU timings `json:"server_cpu_s"`
	RSSMB     float64 `json:"rss_peak_mb"`
	// first is the first request number inside the measured window.
	first int64
}

// serveRun is one serve run's inputs and its place in the stream.
type serveRun struct {
	bin    string
	s      *stream
	sp     serveSpec
	window time.Duration
	clock  *hostClock
	// next is the next stream request number. The stream runs on across
	// repetitions, so each window sends requests no other one sent.
	next atomic.Int64
}

func runServe(cfg config, sp serveSpec, res *result) error {
	bin, err := serverBinary()
	if err != nil {
		return err
	}
	s, err := newStream(cfg.seed, sp.dup)
	if err != nil {
		return err
	}
	run := &serveRun{bin: bin, s: s, sp: sp, window: time.Duration(cfg.seconds) * time.Second / serveReps, clock: newHostClock(serveConns)}
	limit := sp.limit()
	var (
		reps   []repStats
		lat    timings
		gaps   []float64
		proven int
	)
	for rep := 0; rep < serveReps; rep++ {
		st, exs, err := run.rep()
		if err != nil {
			return err
		}
		vs := checkAll(s, exs, sp.quality, res)
		for i, ex := range exs {
			if ex.k < st.first {
				continue
			}
			st.Requests++
			if !vs[i].ok {
				lat.add(math.Inf(1), 1)
				continue
			}
			st.Served++
			if ex.lat <= limit {
				st.InLimit++
			}
			switch ex.cache {
			case "hit":
				st.Hits++
			case "miss":
				st.Misses++
			}
			lat.add(float64(ex.lat)/float64(time.Millisecond), ex.speed)
			gaps = append(gaps, vs[i].gapPct)
			if vs[i].proven {
				proven++
			}
		}
		reps = append(reps, st)
	}

	tail := tailQuantile(len(lat.Ref))
	timed := func(pick func(*timings) []float64) map[string]float64 {
		perRep := func(f func(r repStats) float64) float64 { return median(mapReps(reps, f)) }
		return map[string]float64{
			"setup_s":         perRep(func(r repStats) float64 { return sum(pick(&r.Setup)) }),
			"schedules_per_s": perRep(func(r repStats) float64 { return float64(r.Served) / sum(pick(&r.Seconds)) }),
			"req_per_s":       perRep(func(r repStats) float64 { return float64(r.InLimit) / sum(pick(&r.Seconds)) }),
			"latency_p50_ms":  median(pick(&lat)),
			"latency_p99_ms":  quantile(pick(&lat), tail),
			"cpu_ms_per_op":   perRep(func(r repStats) float64 { return 1000 * sum(pick(&r.ServerCPU)) / float64(r.Requests) }),
		}
	}
	scaled, unscaled := timed(func(t *timings) []float64 { return t.Ref }), timed(func(t *timings) []float64 { return t.Raw })
	for n, v := range scaled {
		if sp.quality && n != "setup_s" {
			// The budget, not the host, paces the quality tier.
			v = unscaled[n]
		}
		res.set(endToEnd, n, v)
	}
	res.set(endToEnd, "rss_peak_mb", median(mapReps(reps, func(r repStats) float64 { return r.RSSMB })))
	res.set(endToEnd, "ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	res.set(endToEnd, "proven_share", float64(proven)/float64(max(len(gaps), 1)))
	res.set(endToEnd, "gap_mean_pct", mean(gaps))
	var hits, misses int
	for _, r := range reps {
		hits += r.Hits
		misses += r.Misses
	}
	res.Details["unscaled"] = unscaled
	res.Details["ref_kernel_s"] = run.clock.samples
	res.Details["reps"] = reps
	res.Details["latency_samples"] = len(lat.Ref)
	res.Details["latency_tail_q"] = tail
	res.Details["cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	return nil
}

// rep starts a fresh server, warms it, measures one window and stops
// the server. Warm-up exchanges are returned for checking but lie below
// the window's first request number.
func (r *serveRun) rep() (repStats, []exchange, error) {
	var st repStats
	r.clock.mark()
	srv, err := startServer(r.bin)
	if err != nil {
		return st, nil, err
	}
	st.Setup.add(srv.setup.Seconds(), r.clock.speed())
	exs, err := r.measure(srv, &st)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return st, exs, err
}

func (r *serveRun) measure(srv *server, st *repStats) ([]exchange, error) {
	client := newClient(serveConns)
	defer client.CloseIdleConnections()
	url := srv.url + r.sp.path()
	exs := drive(client, url, r.s, serveConns, each(r.s.warmNumbers()))
	exs = append(exs, drive(client, url, r.s, serveConns, until(&r.next, time.Now().Add(serveWarm)))...)

	st.first = r.next.Load()
	n := max(1, int(r.window/subWindow))
	r.clock.mark()
	for i := 0; i < n; i++ {
		cpu0, err := cpuTime(srv.pid())
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sub := drive(client, url, r.s, serveConns, until(&r.next, t0.Add(r.window/time.Duration(n))))
		d := time.Since(t0)
		cpu1, err := cpuTime(srv.pid())
		if err != nil {
			return nil, err
		}
		speed := r.clock.speed()
		for j := range sub {
			sub[j].speed = speed
		}
		st.Seconds.add(d.Seconds(), speed)
		st.ServerCPU.add((cpu1 - cpu0).Seconds(), speed)
		exs = append(exs, sub...)
	}
	var err error
	st.RSSMB, err = peakRSSMB(srv.pid())
	return exs, err
}

func mapReps(reps []repStats, f func(r repStats) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}
