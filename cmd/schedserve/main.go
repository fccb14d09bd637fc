// Command schedserve is a long-running HTTP scheduling service: POST a
// DAG as JSON and get the timed schedule back, computed by any
// registered heuristic under the paper's execution model.
//
// Endpoints:
//
//	POST /schedule?heuristic=MCP[&format=gantt][&trace=1]
//	              body: {"name":..., "nodes":[weights], "edges":[{"from","to","weight"}]}
//	POST /schedule/batch?heuristic=MCP
//	              body: a JSON array of DAGs; response is NDJSON, one
//	              line per DAG in input order, streamed as they finish
//	GET  /heuristics      registered scheduler names
//	GET  /metrics         obs registry, Prometheus text format
//	GET  /healthz         liveness probe
//	GET  /debug/pprof/    runtime profiles
//
// Scheduling runs on a bounded pipeline: -workers goroutines pull from
// a -queue-deep admission queue. When the queue is full, /schedule
// sheds load with 429 and a Retry-After estimate; batch items instead
// wait for queue space (bounded by the request deadline). Every
// request is bounded by -timeout — expiry frees the worker at the next
// cancellation poll inside the heuristic. SIGINT/SIGTERM drain
// in-flight requests for up to -drain before exiting.
//
// A content-addressed schedule cache (sized by -cache-entries and
// -cache-bytes; -cache-entries 0 disables it) answers repeated graphs
// — including renamed and relabeled isomorphic copies — without
// scheduling: hits bypass admission entirely and are marked with an
// X-Sched-Cache: hit response header (batch lines carry a "cache"
// field instead).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"schedcomp/internal/obs"

	// Link in every heuristic so ?heuristic= can pick any of them.
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

func main() { os.Exit(run()) }

func run() int {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request timeout for /schedule (0 disables)")
		drain   = flag.Duration("drain", 5*time.Second, "graceful shutdown drain limit")
		maxBody = flag.Int64("maxbody", defaultMaxBody, "maximum DAG request body in bytes")
		workers = flag.Int("workers", 0, "scheduling worker goroutines (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")

		cacheEntries = flag.Int("cache-entries", 4096, "schedule cache capacity in entries (0 disables the cache)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "schedule cache budget in bytes retained by its entries")
	)
	flag.Parse()

	// The service exists to be observed: metrics are always on.
	obs.Default().SetEnabled(true)
	srv := newServer(obs.Default(), serverOptions{
		Timeout: *timeout, MaxBody: *maxBody,
		Workers: *workers, QueueDepth: *queue,
		CacheEntries: *cacheEntries, CacheBytes: *cacheBytes,
	})
	defer srv.Close()
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("schedserve: listening on %s (request timeout %v)", *addr, *timeout)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("schedserve: %v", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}
	stopSig() // a second signal kills immediately rather than draining
	log.Printf("schedserve: draining (limit %v)...", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("schedserve: shutdown: %v", err)
		return 1
	}
	log.Printf("schedserve: bye")
	return 0
}
