// Command prefserve runs the multi-tenant serving layer as an HTTP
// server: prepared TPC-H queries over one partitioning variant, streamed
// as NDJSON, with the admission ladder's typed rejections mapped onto
// HTTP status codes (429 + Retry-After for quota/shed/queue, 504 for
// deadline kills, 503 while draining).
//
// Usage:
//
//	prefserve                                # SD design on :8080
//	prefserve -variant AllReplicated -parts 4
//	prefserve -tenants gold:4,silver:2,bronze:1:200:20
//	prefserve -timeout 500ms                 # default per-query deadline
//
//	curl 'localhost:8080/query?tenant=gold&q=Q3'
//	curl 'localhost:8080/query?tenant=bronze&q=Q1&timeout=50ms'
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: new submissions are rejected, in-
// flight queries finish (bounded by -drain, then forcibly cancelled), and
// the process exits with no leaked goroutines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pref/internal/bench"
	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/table"
	"pref/internal/tpch"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address")
		variant  = flag.String("variant", "SD", "partitioning variant: CP | SD | SD-paper | SD-noRed | AllHashed | AllReplicated")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		parts    = flag.Int("parts", 10, "number of partitions")
		seed     = flag.Int64("seed", 42, "generator seed")
		tenants  = flag.String("tenants", "gold:4,silver:2,bronze:1", "tenant list: name:weight[:rate[:burst]],...")
		slots    = flag.Int("slots", 8, "max concurrently served queries")
		queueTO  = flag.Duration("queue-timeout", time.Second, "weighted-fair queue wait bound")
		shed     = flag.Float64("shed", 1.5, "load threshold above which cost-priced shedding starts")
		retries  = flag.Int("retries", 3, "max execution attempts per query")
		deadline = flag.Duration("timeout", 0, "default per-query deadline when the client sends none (0 = none)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful drain bound on shutdown")
	)
	flag.Parse()
	if err := run(*addr, *variant, *sf, *parts, *seed, *tenants, *slots, *queueTO, *shed, *retries, *deadline, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "prefserve:", err)
		os.Exit(1)
	}
}

func run(addr, variant string, sf float64, parts int, seed int64, tenantSpec string,
	slots int, queueTO time.Duration, shed float64, retries int, deadline, drain time.Duration) error {
	if err := bench.CheckScale("-sf", sf); err != nil {
		return err
	}
	tcs, err := parseTenants(tenantSpec)
	if err != nil {
		return err
	}
	t := tpch.Generate(sf, seed)
	v, err := bench.TPCHVariant(t, parts, variant)
	if err != nil {
		return err
	}
	if len(v.Groups) != 1 {
		return fmt.Errorf("variant %q has %d groups; prefserve serves single-group variants", variant, len(v.Groups))
	}
	m, err := bench.Materialize(v, t.DB)
	if err != nil {
		return err
	}
	// The queries read only the schema (names, dictionary codes) and the
	// partitions hold their own columns, so the generated rows die here.
	t = &tpch.TPCH{DB: table.NewDatabase(t.DB.Schema), SF: t.SF}
	queries := make(map[string]func() plan.Node, len(tpch.QueryNames))
	for _, q := range tpch.QueryNames {
		q := q
		queries[q] = func() plan.Node { return t.Query(q) }
	}
	s, err := serve.NewServer(serve.Options{
		PDB:           m.PDBs[0],
		Config:        v.Groups[0].Config,
		Queries:       queries,
		Tenants:       tcs,
		MaxConcurrent: slots,
		QueueTimeout:  queueTO,
		ShedThreshold: shed,
		MaxAttempts:   retries,
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(s, deadline, w, r)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	hs := &http.Server{Addr: addr, Handler: mux}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("prefserve: serving %s (%d partitions, %d tenants, %d queries) on http://%s\n",
		variant, parts, len(tcs), len(queries), addr)

	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}
	fmt.Fprintf(os.Stderr, "prefserve: draining (bound %v)...\n", drain)
	dctx, dcancel := context.WithTimeout(context.Background(), drain)
	defer dcancel()
	closeErr := s.Close(dctx)
	hs.Shutdown(dctx)
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "prefserve: drain forced: %v\n", closeErr)
	} else {
		fmt.Fprintln(os.Stderr, "prefserve: drained cleanly")
	}
	return nil
}

// handleQuery streams one prepared query as NDJSON: a header object, then
// one int64 array per row. Errors before the first chunk map to HTTP
// status codes; a mid-stream failure is delivered as a final error line
// (the status line has already been sent).
func handleQuery(s *serve.Server, defaultDeadline time.Duration, w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	query := r.URL.Query().Get("q")
	ctx := r.Context()
	d := defaultDeadline
	if ts := r.URL.Query().Get("timeout"); ts != "" {
		// A client's timeout replaces the default deadline but may not
		// drop it: a non-positive one would run the query with none at all.
		var err error
		if d, err = time.ParseDuration(ts); err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: want a positive duration", ts))
			return
		}
	}
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	st, err := s.Stream(ctx, tenant, query)
	if err != nil {
		status, hdr := statusOf(err)
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		httpError(w, status, err)
		return
	}
	defer st.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Pref-Epoch", strconv.FormatInt(st.Epoch, 10))
	w.Header().Set("X-Pref-Attempts", strconv.Itoa(st.Attempts))
	w.Header().Set("X-Pref-Cache-Hit", strconv.FormatBool(st.CacheHit))
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{
		"schema": st.Schema.Names(), "epoch": st.Epoch,
		"attempts": st.Attempts, "cache_hit": st.CacheHit,
		"latency_us": st.Latency.Microseconds(),
	})
	flusher, _ := w.(http.Flusher)
	for {
		rows, err := st.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				enc.Encode(map[string]string{"error": err.Error()})
			}
			break
		}
		for _, row := range rows {
			enc.Encode([]int64(row))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// statusOf maps the serving layer's typed error taxonomy onto HTTP:
// ladder rejections are 429 Too Many Requests with a Retry-After hint
// (503 while draining), deadline kills are 504, unknown names 400/404.
func statusOf(err error) (int, map[string]string) {
	var rej *serve.RejectedError
	switch {
	case errors.As(err, &rej):
		if rej.Stage == "closed" {
			return http.StatusServiceUnavailable, nil
		}
		hdr := map[string]string{}
		if rej.RetryAfter > 0 {
			secs := int(rej.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			hdr["Retry-After"] = strconv.Itoa(secs)
		}
		return http.StatusTooManyRequests, hdr
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, nil
	case errors.Is(err, serve.ErrUnknownQuery):
		return http.StatusNotFound, nil
	case errors.Is(err, serve.ErrUnknownTenant):
		return http.StatusBadRequest, nil
	case errors.Is(err, serve.ErrServerClosed):
		return http.StatusServiceUnavailable, nil
	default:
		return http.StatusInternalServerError, nil
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// parseTenants parses name:weight[:rate[:burst]],... into tenant configs.
// Duplicate names and non-finite numbers are left to serve.NewServer.
func parseTenants(spec string) ([]serve.TenantConfig, error) {
	var out []serve.TenantConfig
	for _, item := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		if fields[0] == "" || len(fields) > 4 {
			return nil, fmt.Errorf("bad tenant spec %q", item)
		}
		tc := serve.TenantConfig{Name: fields[0]}
		vals := make([]float64, 0, 3)
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("bad tenant spec %q: %w", item, err)
			}
			vals = append(vals, v)
		}
		if len(vals) > 0 {
			tc.Weight = vals[0]
		}
		if len(vals) > 1 {
			tc.Rate = vals[1]
		}
		if len(vals) > 2 {
			tc.Burst = vals[2]
		}
		out = append(out, tc)
	}
	return out, nil
}
