package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/serverload"
)

// benchProgram is sized so the match phase dominates HTTP transport: the
// cold/cached ratio then measures the result cache, not socket overhead.
func benchProgram() string {
	return workload.ProgramSource(workload.ProgramConfig{
		Levels: 5, Facts: 800, Rules: 40, Preds: 6, Seed: 7, Poly: 0.3,
	})
}

const benchQuery = "L[p0(K: a -C-> V)]"

// benchServer starts a server with the given cache capacity and returns a
// client plus n open session tokens at the top clearance.
func benchServer(b *testing.B, cacheEntries, n int) (*server.Client, []string) {
	b.Helper()
	srv := server.New(server.Config{CacheEntries: cacheEntries, QueryTimeout: time.Minute})
	if err := srv.Load("bench", benchProgram()); err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	c := server.NewClient(hs.URL, hc)
	tokens := make([]string, n)
	for i := range tokens {
		resp, err := c.Open(context.Background(), server.OpenRequest{
			Subject: fmt.Sprintf("bench%d", i), Clearance: "l4", Mode: "opt"})
		if err != nil {
			b.Fatal(err)
		}
		tokens[i] = resp.Session
	}
	// One throwaway query compiles the reduction so neither variant pays
	// Prepare inside the timed loop.
	if _, err := c.QueryContext(context.Background(), server.QueryRequest{
		Session: tokens[0], Query: benchQuery}); err != nil {
		b.Fatal(err)
	}
	return c, tokens
}

// BenchmarkServerQueryCold measures the full match path: the cache is
// disabled, so every request re-runs the prepared-reduction match.
func BenchmarkServerQueryCold(b *testing.B) {
	c, tokens := benchServer(b, -1, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.QueryContext(ctx, server.QueryRequest{Session: tokens[0], Query: benchQuery})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("cold benchmark served from cache")
		}
	}
}

// BenchmarkServerQueryCached measures a repeat query on a warm cache. The
// acceptance bar is >=10x faster than BenchmarkServerQueryCold.
func BenchmarkServerQueryCached(b *testing.B) {
	c, tokens := benchServer(b, 1024, 1)
	ctx := context.Background()
	req := server.QueryRequest{Session: tokens[0], Query: benchQuery}
	if _, err := c.QueryContext(ctx, req); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.QueryContext(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("cached benchmark missed the cache")
		}
	}
}

// globalInvalidation wraps srv's handler so that every acknowledged
// effective assert or retract on db drops db's whole result cache before
// the client sees the ack: the pre-incremental regime, kept here as the
// baseline arm of BenchmarkWriteMixStorm.
func globalInvalidation(srv *server.Server, db string) http.Handler {
	h := srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/assert" && r.URL.Path != "/v1/retract" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var up server.UpdateResponse
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &up) == nil && up.Changed > 0 {
			srv.InvalidateAll(db, up.Epoch)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()) //nolint:errcheck // the client sees a short write
	})
}

// TestGlobalInvalidationFallback exercises the baseline arm of the
// write-mix benchmark: behind globalInvalidation, a write evicts even the
// cached entries independent of it.
func TestGlobalInvalidationFallback(t *testing.T) {
	srv := server.New(server.Config{})
	if err := srv.Load("test", `
		level(l0). level(l1). order(l0, l1).
		l0[emp(alice: salary -l0-> low)].
		l0[dept(eng: head -l0-> alice)].
	`); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(globalInvalidation(srv, "test"))
	defer hs.Close()
	c := server.NewClient(hs.URL, hs.Client())
	ctx := context.Background()
	sess, err := c.Open(ctx, server.OpenRequest{Subject: "t", Clearance: "l1", DB: "test"})
	if err != nil {
		t.Fatal(err)
	}
	query := func() *server.QueryResponse {
		resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sess.Session, Query: "l0[dept(K: head -C-> V)]"})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	query()
	if !query().Cached {
		t.Fatal("prime query missed")
	}
	if _, err := c.Assert(ctx, sess.Session, "l0[emp(frank: salary -l0-> low)]."); err != nil {
		t.Fatal(err)
	}
	if query().Cached {
		t.Error("independent entry survived under global invalidation")
	}
}

// BenchmarkWriteMixStorm drives a 90/10 read/write workload.ServerLoad
// storm against both invalidation regimes: the server's per-predicate
// incremental path and the global nuke-the-cache baseline
// (globalInvalidation). Writes toggle a p0 fact, so under per-predicate
// invalidation reads of the other predicates keep hitting the cache while
// the baseline re-matches everything after every write. The reported
// p50-read-ns is the client-observed read latency median — the committed
// BENCH_incremental.json pins the ≥5x gap.
func BenchmarkWriteMixStorm(b *testing.B) {
	arms := []struct {
		name   string
		global bool
	}{
		{"invalidation=incremental", false},
		{"invalidation=global", true},
	}
	const sessions = 2
	shape := workload.ProgramConfig{Levels: 4, Facts: 1000, Rules: 8, Preds: 6, Seed: 7, Poly: 0.3}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			srv := server.New(server.Config{CacheEntries: 4096, QueryTimeout: time.Minute})
			if err := srv.Load("bench", workload.ProgramSource(shape)); err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			if arm.global {
				h = globalInvalidation(srv, "bench")
			}
			hs := httptest.NewServer(h)
			b.Cleanup(hs.Close)
			hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
			c := server.NewClient(hs.URL, hc)
			// Warm-up storm: compile reductions and populate the cache so the
			// timed run measures steady state, not Prepare.
			serverload.Run(context.Background(), c, serverload.Config{
				Sessions: sessions, Queries: 24, Program: shape, Seed: 1, DB: "bench",
			})
			perSession := (b.N + sessions - 1) / sessions
			b.ResetTimer()
			rep := serverload.Run(context.Background(), c, serverload.Config{
				Sessions: sessions, Queries: perSession, WriteEvery: 9,
				Program: shape, Seed: 2, DB: "bench",
			})
			b.StopTimer()
			if rep.Errors > 0 {
				b.Fatalf("storm errors: %d, first: %s", rep.Errors, rep.FirstErr)
			}
			b.ReportMetric(float64(rep.ReadP50.Nanoseconds()), "p50-read-ns")
			b.ReportMetric(float64(rep.ReadP95.Nanoseconds()), "p95-read-ns")
			if rep.Queries > 0 {
				b.ReportMetric(float64(rep.CacheHits)/float64(rep.Queries), "hit-rate")
			}
		})
	}
}

// BenchmarkOverloadStorm drives a serverload storm ~5x past the admission
// controller's capacity against both arms: admission on (adaptive limit,
// CoDel shedding, brownout) and admission off (every request executes).
// The workload is a 90/10 read/write mix with a tight per-request deadline,
// so the off arm rides congestion into deadline misses — work executed and
// thrown away — while the on arm sheds early and keeps admitted work
// inside the deadline. The reported goodput (completed queries per second)
// is what the committed BENCH_overload.json gates: on/off >= 1.5x.
func BenchmarkOverloadStorm(b *testing.B) {
	arms := []struct {
		name        string
		maxInflight int
	}{
		{"admission=on", 16},
		{"admission=off", 0},
	}
	const sessions = 40 // vs ~4 concurrent cost-4 reads on the on arm
	shape := workload.ProgramConfig{Levels: 4, Facts: 1200, Rules: 24, Preds: 6, Seed: 7, Poly: 0.3}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			srv := server.New(server.Config{
				CacheEntries: 4096, QueryTimeout: 150 * time.Millisecond,
				MaxSessions: 256, MaxInflight: arm.maxInflight, MaxStale: 30 * time.Second,
			})
			if err := srv.Load("bench", workload.ProgramSource(shape)); err != nil {
				b.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			b.Cleanup(hs.Close)
			hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
			c := server.NewClient(hs.URL, hc)
			// Warm-up: compile every reduction and populate the cache so the
			// timed storm measures steady-state overload, not Prepare.
			serverload.Run(context.Background(), c, serverload.Config{
				Sessions: 4, Queries: 24, Program: shape, Seed: 1, DB: "bench", Sustain: true,
			})
			perSession := (b.N + sessions - 1) / sessions
			b.ResetTimer()
			rep := serverload.Run(context.Background(), c, serverload.Config{
				Sessions: sessions, Queries: perSession, WriteEvery: 9,
				Program: shape, Seed: 2, DB: "bench", Sustain: true,
			})
			b.StopTimer()
			b.ReportMetric(rep.QPS(), "goodput")
			b.ReportMetric(float64(rep.Shed), "shed")
			b.ReportMetric(float64(rep.Errors), "deadline-misses")
			b.ReportMetric(float64(rep.ReadP99.Nanoseconds()), "p99-read-ns")
		})
	}
}

// BenchmarkServerSessions compares 1 reader against 64 concurrent readers
// sharing one warm cache, measuring per-query latency under contention.
func BenchmarkServerSessions(b *testing.B) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			c, tokens := benchServer(b, 1024, n)
			ctx := context.Background()
			if _, err := c.QueryContext(ctx, server.QueryRequest{
				Session: tokens[0], Query: benchQuery}); err != nil { // warm
				b.Fatal(err)
			}
			var next atomic.Int64
			b.SetParallelism(n)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sess := tokens[int(next.Add(1)-1)%len(tokens)]
				for pb.Next() {
					if _, err := c.QueryContext(ctx, server.QueryRequest{
						Session: sess, Query: benchQuery}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
