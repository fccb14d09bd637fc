package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/heuristics"
	"schedcomp/internal/obs"
	"schedcomp/internal/sched"
	"schedcomp/internal/serve"
)

// The reference encoding: the response structs and the json.Encoder
// call the handlers used before they appended bytes themselves. Every
// test below holds the appenders to these bytes exactly.

type assignmentJSON struct {
	Node   int   `json:"node"`
	Proc   int   `json:"proc"`
	Start  int64 `json:"start"`
	Finish int64 `json:"finish"`
}

type qualityJSON struct {
	LowerBound   int64   `json:"lower_bound"`
	Gap          int64   `json:"gap"`
	Proven       bool    `json:"proven"`
	Generations  int     `json:"generations"`
	Improvements int     `json:"improvements"`
	BnbStates    int64   `json:"bnb_states"`
	Seed         string  `json:"seed"`
	BudgetMs     float64 `json:"budget_ms"`
	ElapsedMs    float64 `json:"elapsed_ms"`
}

type scheduleResponse struct {
	Heuristic   string           `json:"heuristic"`
	Graph       string           `json:"graph,omitempty"`
	Nodes       int              `json:"nodes"`
	SerialTime  int64            `json:"serial_time"`
	Makespan    int64            `json:"makespan"`
	Procs       int              `json:"procs"`
	Speedup     float64          `json:"speedup"`
	Efficiency  float64          `json:"efficiency"`
	Assignments []assignmentJSON `json:"assignments"`
	Quality     *qualityJSON     `json:"quality,omitempty"`
	Trace       json.RawMessage  `json:"trace,omitempty"`
}

type batchItemJSON struct {
	Index       int              `json:"index"`
	Error       string           `json:"error,omitempty"`
	Cache       string           `json:"cache,omitempty"`
	Heuristic   string           `json:"heuristic,omitempty"`
	Graph       string           `json:"graph,omitempty"`
	Nodes       int              `json:"nodes,omitempty"`
	SerialTime  int64            `json:"serial_time,omitempty"`
	Makespan    int64            `json:"makespan,omitempty"`
	Procs       int              `json:"procs,omitempty"`
	Assignments []assignmentJSON `json:"assignments,omitempty"`
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func refAssignments(s *sched.Schedule) []assignmentJSON {
	out := make([]assignmentJSON, 0, len(s.ByNode))
	for _, a := range s.ByNode {
		out = append(out, assignmentJSON{Node: int(a.Node), Proc: a.Proc, Start: a.Start, Finish: a.Finish})
	}
	return out
}

func refSchedule(t *testing.T, name string, g *dag.Graph, s *sched.Schedule, best *anytime.Result, budget time.Duration, trace []byte) []byte {
	resp := scheduleResponse{
		Heuristic:   name,
		Graph:       g.Name(),
		Nodes:       g.NumNodes(),
		SerialTime:  g.SerialTime(),
		Makespan:    s.Makespan,
		Procs:       s.NumProcs,
		Speedup:     s.Speedup(),
		Efficiency:  s.Efficiency(),
		Assignments: refAssignments(s),
		Trace:       trace,
	}
	if best != nil {
		resp.Quality = &qualityJSON{
			LowerBound:   best.LowerBound,
			Gap:          best.Gap,
			Proven:       best.Proven,
			Generations:  best.Generations,
			Improvements: best.Improvements,
			BnbStates:    best.ProbeStates,
			Seed:         best.SeedName,
			BudgetMs:     float64(budget) / float64(time.Millisecond),
			ElapsedMs:    float64(best.Elapsed) / float64(time.Millisecond),
		}
	}
	return refEncode(t, resp)
}

func refBatchLine(t *testing.T, res serve.Result, name string, g *dag.Graph) []byte {
	line := batchItemJSON{Index: res.Index, Cache: string(res.Cache)}
	if res.Err != nil {
		line.Error = res.Err.Error()
	} else {
		line.Heuristic = name
		line.Graph = g.Name()
		line.Nodes = g.NumNodes()
		line.SerialTime = g.SerialTime()
		line.Makespan = res.Schedule.Makespan
		line.Procs = res.Schedule.NumProcs
		line.Assignments = refAssignments(res.Schedule)
	}
	return refEncode(t, line)
}

// testGraph builds a random DAG of n nodes named name and schedules it
// with MCP.
func testGraph(t testing.TB, name string, n int, seed int64) (*dag.Graph, *sched.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	g := dag.New(name)
	for i := 0; i < n; i++ {
		g.AddNode(int64(1 + rng.Intn(100)))
	}
	for v := 1; v < n; v++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			u := rng.Intn(v)
			if _, ok := g.EdgeWeight(dag.NodeID(u), dag.NodeID(v)); !ok {
				g.MustAddEdge(dag.NodeID(u), dag.NodeID(v), int64(rng.Intn(60)))
			}
		}
	}
	mcp, err := heuristics.New("MCP")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mcp.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// encodeNames are graph and seed names that exercise every escaping
// rule: HTML-sensitive bytes, quotes, backslashes, control bytes,
// U+2028/U+2029, DEL, multi-byte runes and invalid UTF-8.
var encodeNames = []string{
	"",
	"set07-g01",
	"<a&b>",
	`say "hi" \ bye`,
	"tab\there\nnew\rline\b\f\x01\x1f",
	"line\u2028para\u2029end",
	"del\x7f",
	"héllo wörld ✓ 𝄞",
	"bad\xffutf8\xc3",
	"\xed\xa0\x80 surrogate",
}

func TestEncodeScheduleMatchesEncodingJSON(t *testing.T) {
	for i, gname := range encodeNames {
		g, s := testGraph(t, gname, 5+7*i, int64(i))
		got := encodeSchedule("MCP", g, s, nil, 0, nil)
		if want := refSchedule(t, "MCP", g, s, nil, 0, nil); !bytes.Equal(got, want) {
			t.Errorf("plain %q:\n got %s\nwant %s", gname, got, want)
		}

		best := &anytime.Result{
			Schedule: s, LowerBound: s.Makespan - int64(i), Gap: int64(i), Proven: i == 0,
			Generations: 57 * i, Improvements: i, ProbeStates: int64(1000 * i),
			SeedName: gname, Elapsed: time.Duration(i*i*i) * 1234567 * time.Nanosecond,
		}
		budget := time.Duration(i+1) * 333333 * time.Nanosecond
		got = encodeSchedule(serve.QualityBest, g, s, best, budget, nil)
		if want := refSchedule(t, serve.QualityBest, g, s, best, budget, nil); !bytes.Equal(got, want) {
			t.Errorf("quality %q:\n got %s\nwant %s", gname, got, want)
		}
	}
}

func TestEncodeTraceMatchesEncodingJSON(t *testing.T) {
	g, s := testGraph(t, "<trace&name>", 12, 7)
	tr := obs.NewTrace("schedule <MCP> & \u2028")
	tr.Span("decode").End()
	run := tr.Span("schedule")
	run.Span("child \"quoted\"").End()
	run.End()
	tr.Span("encode") // left open, as the handler's is
	var tb bytes.Buffer
	if err := tr.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	raw := bytes.TrimSpace(tb.Bytes())
	// Indent the reference input too: json.Encoder compacts a
	// RawMessage, and so must traceJSON.
	var indented bytes.Buffer
	if err := json.Indent(&indented, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	// obs escapes HTML itself; an unescaped trace shows that traceJSON
	// escapes it as the reference does.
	unescaped := []byte("{\"name\": \"<a&b> \u2028\", \"spans\": [ ]}")
	for _, in := range [][]byte{raw, indented.Bytes(), unescaped} {
		got := encodeSchedule("MCP", g, s, nil, 0, traceJSON(in))
		if want := refSchedule(t, "MCP", g, s, nil, 0, in); !bytes.Equal(got, want) {
			t.Errorf("trace:\n got %s\nwant %s", got, want)
		}
	}
}

func TestEncodeBatchLineMatchesEncodingJSON(t *testing.T) {
	empty, emptySched := testGraph(t, "", 0, 3)
	for i, gname := range encodeNames {
		g, s := testGraph(t, gname, 3+5*i, int64(100+i))
		for _, res := range []serve.Result{
			{Index: i, Schedule: s},
			{Index: i + 1, Schedule: s, Cache: serve.CacheStatus("hit")},
			{Index: 0, Schedule: s, Cache: serve.CacheStatus("coalesced")},
			{Index: i, Err: context.DeadlineExceeded},
			{Index: i, Err: errors.New("item " + gname), Cache: serve.CacheStatus("miss")},
			{Index: i, Err: errors.New("")},
		} {
			got := appendBatchLine(nil, res, "MCP", g)
			if want := refBatchLine(t, res, "MCP", g); !bytes.Equal(got, want) {
				t.Errorf("batch %q %+v:\n got %s\nwant %s", gname, res, got, want)
			}
		}
	}
	// An empty graph's schedule has only zero fields: the batch line
	// omits them all, the /schedule body writes them.
	res := serve.Result{Index: 0, Schedule: emptySched}
	if got, want := appendBatchLine(nil, res, "ETF", empty), refBatchLine(t, res, "ETF", empty); !bytes.Equal(got, want) {
		t.Errorf("empty batch line:\n got %s\nwant %s", got, want)
	}
	if got, want := encodeSchedule("ETF", empty, emptySched, nil, 0, nil), refSchedule(t, "ETF", empty, emptySched, nil, 0, nil); !bytes.Equal(got, want) {
		t.Errorf("empty schedule:\n got %s\nwant %s", got, want)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 2.0 / 3, 100, 123456789.125,
		1e-7, 1.5e-7, 9.999999e-7, 1e-6, 1.000001e-6, 1e-5, 0.1, 0.2, 0.3,
		1e20, 9.99999999e20, 1e21, 1.5e21, 1e22, 1e100, 5e-324, math.MaxFloat64,
		-1e-7, -1e21, -123.456,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		// Log-uniform over [1e-7, 1e21].
		floats = append(floats, math.Pow(10, -7+28*rng.Float64()))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", strconv.FormatFloat(f, 'g', -1, 64), got, want)
		}
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	strs := append([]string(nil), encodeNames...)
	for c := 0; c < 0x80; c++ {
		strs = append(strs, "x"+string(rune(c))+"y")
	}
	strs = append(strs, strings.Repeat("<>&", 50), "\xe2\x80", "\xe2\x80\xa8\xe2\x80\xa9", "\xf0\x9f\x98")
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// A served-size response costs one allocation: the body buffer.
func TestEncodeScheduleAllocs(t *testing.T) {
	g, s := testGraph(t, "set07-g01-fresh123", 36, 36)
	allocs := testing.AllocsPerRun(50, func() { encodeSchedule("MCP", g, s, nil, 0, nil) })
	if allocs > 2 {
		t.Fatalf("encoding a 36-node response: %v allocs, ceiling 2", allocs)
	}
}
