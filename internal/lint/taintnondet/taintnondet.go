// Package taintnondet is the interprocedural twin of mapiter: it
// tracks values derived from nondeterminism sources (map and
// sync.Map iteration order, channel receive ordering, select arm
// choice, wall-clock time, unseeded math/rand) through the SSA form of
// the whole module (internal/lint/ssair) and reports when one reaches
// a scheduling decision: a sched.Placement assignment, store, or
// literal, or an item pushed into a pq.Heap (whose Less ordering it
// would then control).
//
// Unlike the syntactic mapiter pass, flows survive function calls in
// both directions: a helper that returns map keys taints its callers,
// and a helper that assigns its argument into a Placement is a sink
// for its callers. Sorting (sort.* / slices.Sort*) re-determinizes
// ordering sources and clears their taint; //lint:sorted on the source
// line suppresses the source entirely.
package taintnondet

import (
	"path/filepath"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/ssair"
)

// Analyzer is the taintnondet pass.
var Analyzer = &lint.Analyzer{
	Name: "taintnondet",
	Doc: "track nondeterminism sources (map/sync.Map iteration, chan receive order, " +
		"select choice, time.Now, unseeded math/rand) through interprocedural SSA " +
		"dataflow and flag flows into scheduling sinks (sched.Placement, pq.Heap); " +
		"sort.*/slices.Sort* sanitize ordering taint, //lint:sorted suppresses a source",
	Run: run,
}

func run(pass *lint.Pass) error {
	if pass.Loader == nil {
		// Whole-program analysis needs the loader; a hand-constructed
		// pass gets the intraprocedural analyzers only.
		return nil
	}
	prog, err := ssair.For(pass)
	if err != nil {
		return err
	}
	res := prog.Taint()
	fset := prog.Fset()
	for _, fl := range res.Flows {
		// The program is shared across passes: each flow is reported
		// once, by the pass of the package that holds its sink.
		if fl.Sink.Fn.Pkg == nil || fl.Sink.Fn.Pkg.Types != pass.Pkg {
			continue
		}
		sp := fset.Position(fl.Source.Pos)
		pass.Reportf(fl.Sink.Pos,
			"%s receives a value tainted by %s (%s:%d); sort, seed, or annotate the source with //lint:sorted",
			fl.Sink.Desc, fl.Source.Desc, filepath.Base(sp.Filename), sp.Line)
	}
	return nil
}
