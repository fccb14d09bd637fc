package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
)

// newTestServer returns an httptest server over a fresh handler wired
// to the (enabled) default registry.
func newTestServer(t *testing.T, opts serverOptions) *httptest.Server {
	t.Helper()
	obs.Default().SetEnabled(true)
	srv := newServer(obs.Default(), opts)
	t.Cleanup(srv.Close) // after ts.Close: handlers drain before the pipeline does
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func sampleDAG(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/sample_dag.json")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func postSchedule(t *testing.T, ts *httptest.Server, query, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/schedule"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestScheduleEndpoint(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp := postSchedule(t, ts, "?heuristic=MCP", sampleDAG(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got struct {
		Heuristic   string `json:"heuristic"`
		Nodes       int    `json:"nodes"`
		SerialTime  int64  `json:"serial_time"`
		Makespan    int64  `json:"makespan"`
		Procs       int    `json:"procs"`
		Assignments []struct {
			Node, Proc    int
			Start, Finish int64
		} `json:"assignments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Heuristic != "MCP" || got.Nodes != 7 || len(got.Assignments) != 7 {
		t.Fatalf("response = %+v", got)
	}
	if got.Makespan <= 0 || got.Makespan > got.SerialTime {
		t.Fatalf("makespan %d vs serial %d", got.Makespan, got.SerialTime)
	}
	if got.Procs < 1 {
		t.Fatalf("procs = %d", got.Procs)
	}
}

func TestScheduleDefaultHeuristicAndTrace(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp := postSchedule(t, ts, "?trace=1", sampleDAG(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got struct {
		Heuristic string          `json:"heuristic"`
		Trace     json.RawMessage `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Heuristic != "MCP" {
		t.Fatalf("default heuristic = %q", got.Heuristic)
	}
	if !strings.Contains(string(got.Trace), `"decode"`) || !strings.Contains(string(got.Trace), `"schedule"`) {
		t.Fatalf("trace missing spans: %s", got.Trace)
	}
}

func TestScheduleGanttFormat(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp := postSchedule(t, ts, "?heuristic=DSC&format=gantt", sampleDAG(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "heuristic DSC") || !strings.Contains(out, "P0") {
		t.Fatalf("not a gantt chart:\n%s", out)
	}
}

func TestScheduleMalformedDAG(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	cases := map[string]string{
		"not-json":        "this is not json",
		"negative-weight": `{"nodes":[5,-1],"edges":[]}`,
		"bad-edge":        `{"nodes":[5,5],"edges":[{"from":0,"to":9,"weight":1}]}`,
		"cycle":           `{"nodes":[5,5],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}`,
		"empty-body":      "",
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			resp := postSchedule(t, ts, "", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestScheduleUnknownHeuristicAndMethod(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp := postSchedule(t, ts, "?heuristic=NOPE", sampleDAG(t))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown heuristic status = %d, want 400", resp.StatusCode)
	}
	get, err := http.Get(ts.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", get.StatusCode)
	}
}

func TestScheduleBodyLimit(t *testing.T) {
	ts := newTestServer(t, serverOptions{MaxBody: 64})
	resp := postSchedule(t, ts, "", sampleDAG(t)) // sample is > 64 bytes
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// slowSched blocks long enough to trip the request timeout. Registered
// once for the whole test binary.
type slowSched struct{ d time.Duration }

func (s slowSched) Name() string { return "SLOWTEST" }
func (s slowSched) Schedule(g *dag.Graph) (*sched.Placement, error) {
	time.Sleep(s.d)
	pl := sched.NewPlacement(g.NumNodes())
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, v := range order {
		pl.Assign(v, 0)
	}
	return pl, nil
}

var registerSlow sync.Once

func TestScheduleTimeout(t *testing.T) {
	registerSlow.Do(func() {
		heuristics.Register("SLOWTEST", func() heuristics.Scheduler { return slowSched{d: 300 * time.Millisecond} })
	})
	ts := newTestServer(t, serverOptions{Timeout: 30 * time.Millisecond})
	resp := postSchedule(t, ts, "?heuristic=SLOWTEST", sampleDAG(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "timed out") {
		t.Fatalf("timeout body = %q", raw)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	// Drive one schedule through so the counters are nonzero.
	resp := postSchedule(t, ts, "?heuristic=MCP", sampleDAG(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule status = %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", mresp.StatusCode)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		`sched_schedules_total{heuristic="MCP"}`,
		"# TYPE sched_schedules_total counter",
		"# TYPE serve_request_seconds histogram",
		`serve_requests_total{path="/schedule",code="200"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// The per-(path, code) request counters are resolved once and reused;
// each request must still land on the counter of its own status code.
func TestRequestCountersPerCode(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	counter := func(code string) *obs.Counter {
		return obs.Default().Counter("serve_requests_total", "Requests by path and status code.",
			obs.L("path", "/schedule"), obs.L("code", code))
	}
	ok0, bad0 := counter("200").Value(), counter("400").Value()
	body := sampleDAG(t)
	for i := 0; i < 3; i++ {
		if resp := postSchedule(t, ts, "?heuristic=MCP", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	if resp := postSchedule(t, ts, "?heuristic=NOPE", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown heuristic: status = %d", resp.StatusCode)
	}
	if got := counter("200").Value() - ok0; got != 3 {
		t.Fatalf("code 200 counted %d times, want 3", got)
	}
	if got := counter("400").Value() - bad0; got != 1 {
		t.Fatalf("code 400 counted %d times, want 1", got)
	}
}

func TestHeuristicsEndpoint(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp, err := http.Get(ts.URL + "/heuristics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"CLANS", "DSC", "MCP", "MH", "HU"} {
		if !found[want] {
			t.Fatalf("heuristics list %v missing %s", names, want)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPprofEndpoint(t *testing.T) {
	ts := newTestServer(t, serverOptions{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

// readBody starts at the declared length, capped, and grows only with
// the bytes that arrive.
func TestReadBodyBoundsItsBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 3000)
	got, err := readBody(bytes.NewReader(body), int64(len(body)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readBody = %d bytes, %v", len(got), err)
	}
	// A client that declares 8 MiB and sends 10 bytes.
	got, err = readBody(strings.NewReader("0123456789"), 8<<20)
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("readBody = %q, %v", got, err)
	}
	if cap(got) > maxInitialBody {
		t.Fatalf("10-byte body pinned a %d-byte buffer", cap(got))
	}
	// Unknown length (chunked): starts small, grows as needed.
	got, err = readBody(strings.NewReader("0123456789"), -1)
	if err != nil || string(got) != "0123456789" || cap(got) > bytes.MinRead {
		t.Fatalf("chunked 10-byte body: %q in a %d-byte buffer, %v", got, cap(got), err)
	}
	big := bytes.Repeat([]byte("y"), 3*maxInitialBody+17)
	got, err = readBody(bytes.NewReader(big), -1)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("chunked readBody = %d bytes, %v", len(got), err)
	}
	boom := errors.New("boom")
	if _, err := readBody(iotest.ErrReader(boom), 100); !errors.Is(err, boom) {
		t.Fatalf("read error = %v, want %v", err, boom)
	}
}
