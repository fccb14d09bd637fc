package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"

	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
)

// response is the part of a /schedule response body the checks read.
type response struct {
	Makespan    int64        `json:"makespan"`
	Procs       int          `json:"procs"`
	Assignments []assignment `json:"assignments"`
	Quality     *quality     `json:"quality"`
}

type assignment struct {
	Node   int   `json:"node"`
	Proc   int   `json:"proc"`
	Start  int64 `json:"start"`
	Finish int64 `json:"finish"`
}

// quality is the provenance block of a quality-tier response.
type quality struct {
	LowerBound   int64   `json:"lower_bound"`
	Gap          int64   `json:"gap"`
	Proven       bool    `json:"proven"`
	Generations  int     `json:"generations"`
	Improvements int     `json:"improvements"`
	BudgetMs     float64 `json:"budget_ms"`
	ElapsedMs    float64 `json:"elapsed_ms"`
}

// checkResponse decodes a served body and checks it against the graph
// the request carried. The schedule as served must satisfy the
// execution model on its own (every node once, no overlap on a
// processor, precedence plus communication, makespan equal to the last
// finish), and re-timing its placement with sched.Build must reproduce
// the served makespan. A quality response must carry a block whose gap
// is makespan minus lower bound and which claims proven exactly when
// that gap is 0; a plain response must carry none.
func checkResponse(g *dag.Graph, body []byte, wantQuality bool) (*response, error) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("undecodable body: %w", err)
	}
	n := g.NumNodes()
	if len(r.Assignments) != n {
		return nil, fmt.Errorf("%d assignments for %d nodes", len(r.Assignments), n)
	}
	if r.Procs < 1 || r.Procs > n {
		return nil, fmt.Errorf("%d processors for %d nodes", r.Procs, n)
	}
	served := &sched.Schedule{Graph: g, ByNode: make([]sched.Assignment, n), NumProcs: r.Procs, Makespan: r.Makespan}
	seen := make([]bool, n)
	var last int64
	for _, a := range r.Assignments {
		if a.Node < 0 || a.Node >= n || seen[a.Node] {
			return nil, fmt.Errorf("node %d missing, repeated or out of range", a.Node)
		}
		if a.Proc < 0 || a.Proc >= r.Procs {
			return nil, fmt.Errorf("node %d on processor %d of %d", a.Node, a.Proc, r.Procs)
		}
		seen[a.Node] = true
		served.ByNode[a.Node] = sched.Assignment{Node: dag.NodeID(a.Node), Proc: a.Proc, Start: a.Start, Finish: a.Finish}
		last = max(last, a.Finish)
	}
	if err := served.Validate(); err != nil {
		return nil, fmt.Errorf("served schedule: %w", err)
	}
	if last != r.Makespan {
		return nil, fmt.Errorf("makespan %d but the last task finishes at %d", r.Makespan, last)
	}

	as := append([]assignment(nil), r.Assignments...)
	sort.Slice(as, func(i, j int) bool {
		if as[i].Proc != as[j].Proc {
			return as[i].Proc < as[j].Proc
		}
		return as[i].Start < as[j].Start
	})
	pl := sched.NewPlacement(n)
	for _, a := range as {
		pl.Assign(dag.NodeID(a.Node), a.Proc)
	}
	rebuilt, err := sched.Build(g, pl)
	if err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	if err := rebuilt.Validate(); err != nil {
		return nil, fmt.Errorf("rebuilt schedule: %w", err)
	}
	if rebuilt.Makespan != r.Makespan {
		return nil, fmt.Errorf("served makespan %d, rebuilt %d", r.Makespan, rebuilt.Makespan)
	}

	q := r.Quality
	switch {
	case !wantQuality && q != nil:
		return nil, fmt.Errorf("plain request answered with a quality block")
	case wantQuality && q == nil:
		return nil, fmt.Errorf("quality request answered without a quality block")
	case q == nil:
	case q.LowerBound < 1:
		return nil, fmt.Errorf("lower bound %d", q.LowerBound)
	case q.Gap != r.Makespan-q.LowerBound:
		return nil, fmt.Errorf("gap %d != makespan %d - lower bound %d", q.Gap, r.Makespan, q.LowerBound)
	case q.Gap < 0:
		return nil, fmt.Errorf("negative gap %d", q.Gap)
	case q.Proven != (q.Gap == 0):
		return nil, fmt.Errorf("proven = %v with gap %d", q.Proven, q.Gap)
	}
	return &r, nil
}

// lowerBound is the communication-free critical path of g, the bound
// the quality tier starts from: no schedule of g is shorter.
func lowerBound(g *dag.Graph) (int64, error) {
	bl, err := g.BLevelsNoComm()
	if err != nil {
		return 0, err
	}
	var lb int64
	for _, l := range bl {
		lb = max(lb, l)
	}
	return lb, nil
}

// scheduleHash is the FNV-1a digest cmd/schedbench computes per
// heuristic: makespan, processor count and every assignment in node
// order, schedules in corpus order.
type scheduleHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newScheduleHash() *scheduleHash { return &scheduleHash{h: fnv.New64a()} }

func (s *scheduleHash) word(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:])
}

func (s *scheduleHash) add(sc *sched.Schedule) {
	s.word(uint64(sc.Makespan))
	s.word(uint64(sc.NumProcs))
	for _, a := range sc.ByNode {
		s.word(uint64(a.Proc))
		s.word(uint64(a.Start))
		s.word(uint64(a.Finish))
	}
}

func (s *scheduleHash) String() string { return fmt.Sprintf("fnv1a:%016x", s.h.Sum64()) }

// goldenSeed is the corpus seed goldenHashes were recorded at.
const goldenSeed = 1994

// goldenHashes are the per-heuristic schedule hashes of the paper
// corpus at seed 1994, as committed in BENCH_schedbench.json. A
// performance change never changes an answer, so these never move.
var goldenHashes = map[string]string{
	"CLANS": "fnv1a:0aeefe001fea9880",
	"DCP":   "fnv1a:ce1d55ada091a71b",
	"DLS":   "fnv1a:f0b98c9a9309e950",
	"DSC":   "fnv1a:3556b510c8a44398",
	"ETF":   "fnv1a:347ecbedab4aaebf",
	"EZ":    "fnv1a:2b14741958134c70",
	"HU":    "fnv1a:a67839df6273ca2f",
	"LC":    "fnv1a:1c4381d562ae73a8",
	"MCP":   "fnv1a:1ece7a60ea758864",
	"MH":    "fnv1a:edb5cd4c2d75477c",
	"RAND":  "fnv1a:2e3f4b83c845752d",
}

// checkHashes compares one round's per-heuristic hashes with want and
// names every heuristic that differs or is missing on either side.
func checkHashes(got, want map[string]string) error {
	var bad []string
	for name, w := range want {
		if g, ok := got[name]; !ok {
			bad = append(bad, name+": not run")
		} else if g != w {
			bad = append(bad, fmt.Sprintf("%s: %s, want %s", name, g, w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			bad = append(bad, name+": no expected hash")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("schedule hashes differ: %s", strings.Join(bad, "; "))
	}
	return nil
}
