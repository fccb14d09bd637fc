package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// cachedServerOptions turns the schedule cache on with test-friendly
// bounds; everything else stays at the handler defaults.
func cachedServerOptions() serverOptions {
	return serverOptions{Workers: 2, QueueDepth: 8, CacheEntries: 64}
}

func TestScheduleCacheHeaderAndByteIdenticalBody(t *testing.T) {
	ts := newTestServer(t, cachedServerOptions())
	body := sampleDAG(t)

	first := postSchedule(t, ts, "?heuristic=MCP", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Sched-Cache"); got != "miss" {
		t.Fatalf("first X-Sched-Cache = %q, want miss", got)
	}
	firstBody, err := io.ReadAll(first.Body)
	if err != nil {
		t.Fatal(err)
	}

	second := postSchedule(t, ts, "?heuristic=MCP", body)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", second.StatusCode)
	}
	if got := second.Header.Get("X-Sched-Cache"); got != "hit" {
		t.Fatalf("second X-Sched-Cache = %q, want hit", got)
	}
	secondBody, err := io.ReadAll(second.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The consistency contract: a hit returns the byte-identical
	// response body a miss produced.
	if string(firstBody) != string(secondBody) {
		t.Fatalf("hit body differs from miss body:\nmiss: %s\nhit:  %s", firstBody, secondBody)
	}

	// A renamed copy of the same graph is the same content: still a
	// hit (name only shows up in the response's own graph field).
	renamed := strings.Replace(body, `"name"`, `"renamed_name"`, 1)
	if renamed == body {
		// sample has no name field; wrap one in.
		renamed = strings.Replace(body, "{", `{"name":"renamed",`, 1)
	}
	third := postSchedule(t, ts, "?heuristic=MCP", renamed)
	if third.StatusCode != http.StatusOK {
		t.Fatalf("renamed status = %d", third.StatusCode)
	}
	if got := third.Header.Get("X-Sched-Cache"); got != "hit" {
		t.Fatalf("renamed X-Sched-Cache = %q, want hit", got)
	}

	// A different heuristic is a different key.
	other := postSchedule(t, ts, "?heuristic=HU", body)
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other-heuristic status = %d", other.StatusCode)
	}
	if got := other.Header.Get("X-Sched-Cache"); got != "miss" {
		t.Fatalf("other-heuristic X-Sched-Cache = %q, want miss", got)
	}
}

func TestScheduleNoCacheNoHeader(t *testing.T) {
	ts := newTestServer(t, serverOptions{}) // CacheEntries 0: cache off
	resp := postSchedule(t, ts, "?heuristic=MCP", sampleDAG(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got, ok := resp.Header["X-Sched-Cache"]; ok {
		t.Fatalf("uncached server sent X-Sched-Cache: %q", got)
	}
}

func TestScheduleBatchCacheField(t *testing.T) {
	ts := newTestServer(t, cachedServerOptions())
	g := sampleDAG(t)
	batch := "[" + g + "," + g + "," + g + "]"
	resp, err := http.Post(ts.URL+"/schedule/batch?heuristic=MCP", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	type line struct {
		Index    int    `json:"index"`
		Error    string `json:"error"`
		Cache    string `json:"cache"`
		Makespan int64  `json:"makespan"`
	}
	var lines []line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	misses, hits := 0, 0
	var makespan int64
	for i, l := range lines {
		if l.Index != i || l.Error != "" {
			t.Fatalf("line %d: %+v", i, l)
		}
		if makespan == 0 {
			makespan = l.Makespan
		} else if l.Makespan != makespan {
			t.Fatalf("makespan diverged across identical items: %d vs %d", l.Makespan, makespan)
		}
		switch l.Cache {
		case "miss":
			misses++
		case "hit", "coalesced": // identical items may share one flight
			hits++
		default:
			t.Fatalf("line %d cache = %q", i, l.Cache)
		}
	}
	if misses != 1 || hits != 2 {
		t.Fatalf("%d misses / %d hits or coalesced, want 1 / 2", misses, hits)
	}
}

func TestScheduleRejectsTrailingData(t *testing.T) {
	ts := newTestServer(t, cachedServerOptions())
	g := strings.TrimSpace(sampleDAG(t))

	resp := postSchedule(t, ts, "?heuristic=MCP", g+g)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/schedule with trailing object: status = %d, want 400", resp.StatusCode)
	}
	resp = postSchedule(t, ts, "?heuristic=MCP", g+"garbage")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/schedule with trailing garbage: status = %d, want 400", resp.StatusCode)
	}

	batch := "[" + g + "]"
	for _, body := range []string{batch + batch, batch + "x"} {
		bresp, err := http.Post(ts.URL+"/schedule/batch?heuristic=MCP", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/schedule/batch with trailing data: status = %d, want 400", bresp.StatusCode)
		}
	}
}

func TestScheduleRejectsInvalidWireGraphs(t *testing.T) {
	ts := newTestServer(t, cachedServerOptions())
	bad := []string{
		`{"nodes":[1,2],"edges":[{"from":0,"to":0,"weight":1}]}`,                              // self loop
		`{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":1},{"from":0,"to":1,"weight":2}]}`, // duplicate edge
		`{"nodes":[1,2],"edges":[{"from":5,"to":1,"weight":1}]}`,                              // out of range
		`{"nodes":[1,2],"edges":[{"from":0,"to":1,"weight":-2}]}`,                             // negative weight
		`{"name":"` + strings.Repeat("N", 2000) + `","nodes":[1],"edges":[]}`,                 // oversized name
		`{"nodes":[1,1],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}`, // cycle
	}
	for _, body := range bad {
		resp := postSchedule(t, ts, "?heuristic=MCP", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestMetricsExposeCacheCounters(t *testing.T) {
	ts := newTestServer(t, cachedServerOptions())
	body := sampleDAG(t)
	postSchedule(t, ts, "?heuristic=MCP", body)
	postSchedule(t, ts, "?heuristic=MCP", body)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`schedcache_hits_total{heuristic="MCP"}`,
		`schedcache_misses_total{heuristic="MCP"}`,
		"schedcache_entries",
		"schedcache_bytes",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
