// Command dlserve serves one Datalog program over HTTP with snapshot-
// isolated concurrent queries and a materialized-result cache.
//
// Usage:
//
//	dlserve -program FILE [-facts FILE] [-addr :8080]
//	        [-cache-bytes N] [-max-facts-bytes N]
//	        [-max-query-bytes N] [-read-header-timeout D]
//	        [-write-timeout D] [-idle-timeout D]
//	        [-journal-size N] [-slow-query D] [-trace-sample N]
//	        [-log-level debug|info|warn|error|off]
//
// The program file holds the rules (plus optional seed facts); additional
// ground facts can be bulk-loaded from -facts at startup and streamed in
// over POST /facts at runtime (atomic batches: the whole body is validated
// before the first insert, and bodies beyond -max-facts-bytes get HTTP
// 413). Every write publishes a new snapshot epoch; queries always run
// against the latest epoch without blocking writes or each other. Repeated
// queries of an unchanged database are served from the result cache, and
// writes maintain the cached answers incrementally — post-write queries
// are cache hits flagged "maintained":true, not cold recomputes
// (dl_resultcache_{maintained,recomputed}_total on /metrics count the two
// outcomes).
//
// Observability: the server logs one JSON line per request (log/slog on
// stderr, -log-level) carrying the request's correlation ID (accepted from
// X-Request-Id or generated, echoed in responses), keeps a bounded journal
// of completed queries plus an always-retained slow-query ring
// (-journal-size, -slow-query), and attaches a full span tree to 1 in
// every -trace-sample requests' journal records. The startup line logs the
// effective configuration, so a saved log identifies how the process ran.
//
// Endpoints:
//
//	GET  /query?q=?- p(a, Y).   answer a query (&trace=1 for the span tree,
//	                            &limit=K to stop after K answers, &stream=1
//	                            for chunked NDJSON rows as they are derived)
//	POST /query                 {"query": "?- p(a, Y).", "trace": false,
//	                            "limit": 0, "stream": false}
//	POST /facts                 load "pred(a, b)." lines atomically, advance
//	                            the epoch, maintain cached answers
//	GET  /healthz               liveness, epoch, cache footprint
//	GET  /readyz                readiness: 503 until the startup fact load
//	                            finishes and the serving plan compiles
//	GET  /debug/queries         query journal: in-flight, recent and slow
//	GET  /debug/queries/slow    slow queries only (wall time >= -slow-query)
//	GET  /metrics               Prometheus text (engine + serving metrics,
//	                            dl_build_info)
//	GET  /statz                 JSON metric snapshot with p50/p90/p99
//	GET  /debug/vars            expvar JSON
//	GET  /debug/pprof/          pprof profiles
//
// Example:
//
//	dlserve -program tc.dl -addr :8080 &
//	curl 'http://localhost:8080/query?q=%3F-%20p(a,%20Y).'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		program     = flag.String("program", "", "Datalog program file: rules plus optional seed facts (required)")
		factsPath   = flag.String("facts", "", "bulk-load additional ground facts from this file at startup (readiness gates on it)")
		cacheBytes  = flag.Int64("cache-bytes", eval.DefaultResultCacheBytes, "result-cache byte budget")
		maxFacts    = flag.Int64("max-facts-bytes", server.DefaultMaxFactsBytes, "POST /facts body size cap (negative = unlimited)")
		maxQuery    = flag.Int64("max-query-bytes", server.DefaultMaxQueryBytes, "POST /query body size cap (negative = unlimited)")
		rhTimeout   = flag.Duration("read-header-timeout", obs.DefaultReadHeaderTimeout, "http.Server ReadHeaderTimeout (slowloris bound; negative = disabled)")
		wTimeout    = flag.Duration("write-timeout", obs.DefaultWriteTimeout, "http.Server WriteTimeout (whole response incl. streams; negative = disabled)")
		idleTO      = flag.Duration("idle-timeout", obs.DefaultIdleTimeout, "http.Server IdleTimeout for keep-alive connections (negative = disabled)")
		journalSize = flag.Int("journal-size", 0, "query-journal ring capacity (0 = default, negative = journal off)")
		slowQuery   = flag.Duration("slow-query", 0, "latency at which a query enters the slow ring (0 = default, negative = slow ring off)")
		traceSample = flag.Int("trace-sample", 0, "attach a span tree to 1 in N journal records (0 = sampling off)")
		logLevel    = flag.String("log-level", "info", "request log level: debug, info, warn, error or off")
	)
	flag.Parse()
	if *program == "" {
		fatal(fmt.Errorf("-program FILE is required"))
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(*program)
	if err != nil {
		fatal(err)
	}
	s, err := server.New(string(src), server.Config{
		Registry:           obs.Default(),
		CacheBytes:         *cacheBytes,
		MaxFactsBytes:      *maxFacts,
		MaxQueryBytes:      *maxQuery,
		JournalSize:        *journalSize,
		SlowQueryThreshold: *slowQuery,
		TraceSampleRate:    *traceSample,
		Logger:             logger,
		// Readiness gates on the startup bulk load: /readyz answers 503
		// until the -facts file (when given) is fully published.
		HoldReady: *factsPath != "",
	})
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *program, err))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if logger != nil {
		// One structured line with the effective configuration: a saved log
		// identifies exactly how this process ran, defaults resolved.
		logger.LogAttrs(context.Background(), slog.LevelInfo, "starting",
			slog.String("addr", l.Addr().String()),
			slog.String("program", *program),
			slog.String("facts", *factsPath),
			slog.Int64("cache_bytes", *cacheBytes),
			slog.Int("gomaxprocs", runtime.GOMAXPROCS(0)),
			slog.Int64("max_facts_bytes", *maxFacts),
			slog.Int64("max_query_bytes", *maxQuery),
			slog.Duration("read_header_timeout", *rhTimeout),
			slog.Duration("write_timeout", *wTimeout),
			slog.Duration("idle_timeout", *idleTO),
			slog.Int("journal_size", *journalSize),
			slog.Duration("slow_query_threshold", effSlowQuery(*slowQuery)),
			slog.Int("trace_sample", *traceSample),
			slog.String("log_level", *logLevel),
			slog.String("go_version", runtime.Version()),
		)
	}

	// Serve before the bulk load so liveness (and 503 readiness) are
	// observable while -facts streams in; the serving line is printed only
	// once the server is ready, which is what scripts and tests wait for.
	hs := obs.NewServer(s.Handler(), obs.ServerConfig{
		ReadHeaderTimeout: *rhTimeout,
		WriteTimeout:      *wTimeout,
		IdleTimeout:       *idleTO,
	})
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	if *factsPath != "" {
		facts, err := os.ReadFile(*factsPath)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		if _, err := s.LoadFacts(string(facts)); err != nil {
			fatal(fmt.Errorf("%s: %w", *factsPath, err))
		}
		if logger != nil {
			logger.LogAttrs(context.Background(), slog.LevelInfo, "facts_loaded",
				slog.String("facts", *factsPath),
				slog.Int("bytes", len(facts)),
				slog.Uint64("epoch", s.Snapshot().Epoch()),
				slog.Int64("wall_us", time.Since(t0).Microseconds()))
		}
		s.MarkReady()
	}

	// The scrape-friendly line scripts and tests parse for the bound port.
	fmt.Printf("%% dlserve serving http://%s/query /facts /healthz /readyz /metrics /statz /debug/queries (epoch %d)\n",
		l.Addr(), s.Snapshot().Epoch())
	if err := <-errc; err != nil {
		fatal(err)
	}
}

// newLogger builds the JSON request logger for the level name, or nil for
// "off".
func newLogger(level string) (*slog.Logger, error) {
	var l slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		l = slog.LevelDebug
	case "info":
		l = slog.LevelInfo
	case "warn":
		l = slog.LevelWarn
	case "error":
		l = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn, error or off (got %q)", level)
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

// effSlowQuery resolves the -slow-query flag the way server.Config does,
// so the startup line logs the threshold actually in force.
func effSlowQuery(d time.Duration) time.Duration {
	if d == 0 {
		return server.DefaultSlowQueryThreshold
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlserve:", err)
	os.Exit(1)
}
