package main

import (
	"encoding/json"
	"strings"
	"testing"

	"schedcomp/internal/dag"
)

// forkJoin is a -> {b, c} -> d with unit communication; its served
// schedule puts b beside a and c on a second processor.
func forkJoin(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("fork-join")
	a, b, c, d := g.AddNode(10), g.AddNode(20), g.AddNode(20), g.AddNode(10)
	for _, e := range [][2]dag.NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	return g
}

func served() response {
	return response{Makespan: 42, Procs: 2, Assignments: []assignment{
		{Node: 0, Proc: 0, Start: 0, Finish: 10},
		{Node: 1, Proc: 0, Start: 10, Finish: 30},
		{Node: 2, Proc: 1, Start: 11, Finish: 31},
		{Node: 3, Proc: 0, Start: 32, Finish: 42},
	}}
}

func body(t *testing.T, r response) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckResponseAcceptsServedSchedules(t *testing.T) {
	g := forkJoin(t)
	if _, err := checkResponse(g, body(t, served()), false); err != nil {
		t.Fatalf("plain: %v", err)
	}
	q := served()
	q.Quality = &quality{LowerBound: 40, Gap: 2}
	if _, err := checkResponse(g, body(t, q), true); err != nil {
		t.Fatalf("quality: %v", err)
	}
}

func TestCheckResponseRejectsForgeries(t *testing.T) {
	g := forkJoin(t)
	for _, tc := range []struct {
		name    string
		quality bool
		forge   func(r *response)
		want    string
	}{
		{"wrong makespan", false, func(r *response) { r.Makespan = 45 }, "makespan"},
		{"overlap on one processor", false, func(r *response) { r.Assignments[2].Proc = 0 }, "overlap"},
		{"missing node", false, func(r *response) { r.Assignments = r.Assignments[:3] }, "3 assignments for 4 nodes"},
		{"node served twice", false, func(r *response) { r.Assignments[3].Node = 2 }, "repeated"},
		{"data not yet arrived", false, func(r *response) { r.Assignments[2].Start, r.Assignments[2].Finish = 10, 30 }, "before data"},
		{"idle time Build removes", false, func(r *response) {
			r.Assignments[3].Start, r.Assignments[3].Finish, r.Makespan = 35, 45, 45
		}, "rebuilt 42"},
		{"broken gap identity", true, func(r *response) { r.Quality = &quality{LowerBound: 40, Gap: 0} }, "gap 0 != makespan 42 - lower bound 40"},
		{"proven with a gap", true, func(r *response) { r.Quality = &quality{LowerBound: 40, Gap: 2, Proven: true} }, "proven = true"},
		{"quality block missing", true, func(r *response) {}, "without a quality block"},
		{"quality block on a plain request", false, func(r *response) { r.Quality = &quality{LowerBound: 42} }, "plain request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := served()
			tc.forge(&r)
			_, err := checkResponse(g, body(t, r), tc.quality)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckHashesRejectsAChangedCorpusHash(t *testing.T) {
	got := map[string]string{}
	for h, v := range goldenHashes {
		got[h] = v
	}
	if err := checkHashes(got, goldenHashes); err != nil {
		t.Fatalf("golden against itself: %v", err)
	}
	got["MCP"] = "fnv1a:0000000000000000"
	if err := checkHashes(got, goldenHashes); err == nil || !strings.Contains(err.Error(), "MCP") {
		t.Fatalf("changed MCP hash: err = %v", err)
	}
	delete(got, "MCP")
	if err := checkHashes(got, goldenHashes); err == nil || !strings.Contains(err.Error(), "MCP: not run") {
		t.Fatalf("missing MCP: err = %v", err)
	}
}
