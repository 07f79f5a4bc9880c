package server_test

// The overload-chaos harness: a serveload storm driven 5-10x past the
// admission controller's capacity, with fault-injected latency spikes
// inside the admitted query span, proving the graceful-degradation
// contract (run via `make overload-chaos` and CI, always under -race):
//
//   - bounded tail latency for admitted requests: what the controller
//     lets in completes inside the request deadline instead of queueing
//     into a latency cliff;
//   - the control plane never starves: /v1/healthz and /v1/repl/status
//     answer throughout the storm (they bypass admission);
//   - writes acked during overload are never lost;
//   - shed requests really are shed (typed 429s the storm counts), and
//     brownout really serves marked stale answers;
//   - after the storm drains, no goroutines leak and the admission
//     queues are empty.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/serverload"
)

// overloadShape is small enough that a reduction builds in well under the
// request deadline, big enough that a cold match is real work.
var overloadShape = workload.ProgramConfig{Levels: 4, Facts: 300, Rules: 12, Preds: 4, Seed: 7, Poly: 0.3}

// spikeEvery returns a fault plan stalling every nth admitted query by
// faultinject.FileSlowDuration — the injected latency spike the storm
// drives admission control with.
func spikeEvery(n int64) faultinject.FilePlan {
	return func(ev faultinject.FileEvent, count int64) faultinject.FileAction {
		if ev == faultinject.ServerQueryWork && count%n == 0 {
			return faultinject.FileSlow
		}
		return faultinject.FileOK
	}
}

// waitAdmissionDrained polls /v1/stats until the admission controller
// reports an empty queue and zero inflight cost.
func waitAdmissionDrained(t *testing.T, c *server.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(context.Background())
		if err == nil && st.Admission != nil && st.Admission.Queued == 0 && st.Admission.Inflight == 0 {
			return
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("stats after storm: %v", err)
			}
			t.Fatalf("admission never drained: %+v", st.Admission)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestOverloadChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("overload harness storms a live server; skipped under -short")
	}
	before := runtime.NumGoroutine()

	srv := server.New(server.Config{
		MaxSessions:  512,
		CacheEntries: 4096,
		QueryTimeout: 2 * time.Second,
		MaxInflight:  8, // ~2 concurrent cost-4 reads: the storm is >10x this
		MaxStale:     30 * time.Second,
		StreamFaults: spikeEvery(5),
	})
	if err := srv.Load("chaos", workload.ProgramSource(overloadShape)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 10*time.Second) }()

	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	c := server.NewClient(ln.Addr().String(), hc)
	bg := context.Background()

	// Control-plane pollers: health and replication status must answer
	// throughout the storm — both bypass admission.
	pollCtx, stopPoll := context.WithCancel(bg)
	var pollWG sync.WaitGroup
	var healthFails, statusFails atomic.Int64
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for pollCtx.Err() == nil {
			if err := c.Healthy(pollCtx); err != nil && pollCtx.Err() == nil {
				healthFails.Add(1)
			}
			if _, err := c.ReplStatus(pollCtx); err != nil && pollCtx.Err() == nil {
				statusFails.Add(1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Tracked writer: every write it sees acked must survive the storm.
	// 429s and other transient failures retry the same fact — asserts are
	// idempotent, so the fact's fate is never ambiguous.
	wsess, err := c.Open(bg, server.OpenRequest{Subject: "tracked-writer", Clearance: "l0", DB: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	var ackMu sync.Mutex
	acked := 0
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for i := 0; i < 1000 && pollCtx.Err() == nil; i++ {
			fact := fmt.Sprintf("l0[p0(acked%d: a -l0-> w%d)].", i, i)
			for pollCtx.Err() == nil {
				if _, err := c.Assert(pollCtx, wsess.Session, fact); err == nil {
					ackMu.Lock()
					acked++
					ackMu.Unlock()
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// The storm: 48 sustained sessions against ~2 reads of capacity, 90/10
	// read/write mix so cache churn keeps the match path hot, windowed so
	// the report shows the shed/stale/admitted timeline.
	rep := serverload.Run(bg, c, serverload.Config{
		Sessions: 48, Queries: 80, WriteEvery: 9,
		Program: overloadShape, Seed: 42, DB: "chaos",
		Sustain: true, Window: 250 * time.Millisecond,
	})
	stopPoll()
	pollWG.Wait()
	t.Logf("storm: %d queries (%d hits, %d stale), %d shed, %d errors, p50=%s p99=%s over %s",
		rep.Queries, rep.CacheHits, rep.Stale, rep.Shed, rep.Errors, rep.ReadP50, rep.ReadP99, rep.Elapsed)

	// The control plane never starved.
	if n := healthFails.Load(); n > 0 {
		t.Errorf("healthz failed %d time(s) during the storm; health must bypass admission", n)
	}
	if n := statusFails.Load(); n > 0 {
		t.Errorf("repl/status failed %d time(s) during the storm; replication must bypass admission", n)
	}

	// The overload was real, and admitted work still completed.
	if rep.Shed == 0 {
		t.Error("a 48-session storm against MaxInflight=8 shed nothing; admission is not engaging")
	}
	if rep.Queries == 0 {
		t.Fatal("no queries completed during the storm")
	}
	// Bounded tail: admitted requests finish inside the request deadline
	// instead of riding a collapsing queue.
	if rep.ReadP99 >= 2*time.Second {
		t.Errorf("admitted-read p99 = %s, want < the 2s request deadline", rep.ReadP99)
	}
	if rep.RYWViolations > 0 {
		t.Errorf("%d read-your-writes violations on a single server", rep.RYWViolations)
	}
	if len(rep.Windows) == 0 {
		t.Error("windowed storm reported no windows")
	}

	// Server-side accounting agrees: gated admissions, bypassed control
	// plane, real sheds.
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil {
		t.Fatal("admission stats missing with MaxInflight set")
	}
	if st.Admission.Admitted == 0 || st.Admission.Bypassed == 0 || st.Admission.Shed == 0 {
		t.Errorf("admission counters: %+v, want admitted, bypassed and shed all > 0", st.Admission)
	}
	waitAdmissionDrained(t, c)

	// Zero acked-write loss: every fact the writer saw acknowledged
	// answers exactly once.
	ackMu.Lock()
	got := acked
	ackMu.Unlock()
	if got == 0 {
		t.Fatal("tracked writer acked nothing during the storm")
	}
	vc := c.WithRetry(server.DefaultRetryPolicy())
	for i := 0; i < got; i++ {
		resp, err := vc.QueryContext(bg, server.QueryRequest{
			Session: wsess.Session, Query: fmt.Sprintf("l0[p0(acked%d: a -l0-> V)]", i)})
		if err != nil {
			t.Fatalf("probing acked write %d: %v", i, err)
		}
		if len(resp.Answers) != 1 || resp.Answers[0]["V"] != fmt.Sprintf("w%d", i) {
			t.Fatalf("ACKED WRITE LOST under overload: acked%d (got %v)", i, resp.Answers)
		}
	}
	t.Logf("all %d acked writes survived the storm", got)

	// Drain, then prove nothing leaked.
	hc.CloseIdleConnections()
	stop()
	if err := <-served; err != nil && err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v after drain", err)
	}
	hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after overload drain: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSustainedOverloadNoLeaks holds 64 sessions in sustained overload
// against a tiny admission limit, then drains and requires the goroutine
// count back at baseline and the admission queues empty — the
// session/goroutine/FD-leak regression for the shedding path. Run under
// -race.
func TestSustainedOverloadNoLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained overload storm; skipped under -short")
	}
	before := runtime.NumGoroutine()

	srv := server.New(server.Config{
		MaxSessions:  256,
		CacheEntries: 1024,
		QueryTimeout: time.Second,
		MaxInflight:  8,
		StreamFaults: spikeEvery(4),
	})
	if err := srv.Load("leak", workload.ProgramSource(overloadShape)); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 10*time.Second) }()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	c := server.NewClient(ln.Addr().String(), hc)

	rep := serverload.Run(context.Background(), c, serverload.Config{
		Sessions: 64, Queries: 30, WriteEvery: 9,
		Program: overloadShape, Seed: 7, DB: "leak", Sustain: true,
	})
	t.Logf("sustained storm: %d queries, %d shed, %d errors", rep.Queries, rep.Shed, rep.Errors)
	if rep.Queries == 0 {
		t.Fatal("no queries completed")
	}
	waitAdmissionDrained(t, c)

	hc.CloseIdleConnections()
	stop()
	if err := <-served; err != nil && err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v after drain", err)
	}
	hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after sustained overload: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBrownoutServesStale pins the brownout path end to end: a cached
// answer is invalidated by a write, the controller is saturated, and a
// shed read comes back 200 with the invalidated answer, StaleMS set and
// the X-Multilog-Stale header on the wire — degraded service instead of a
// 429.
func TestBrownoutServesStale(t *testing.T) {
	srv := server.New(server.Config{
		CacheEntries: 4096,
		QueryTimeout: 2 * time.Second,
		MaxInflight:  4, // exactly one cost-4 read at a time
		MaxStale:     time.Minute,
		StreamFaults: faultinject.FileActionAt(faultinject.FileSlow, faultinject.ServerQueryWork, 1),
	})
	if err := srv.Load("brown", workload.ProgramSource(overloadShape)); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	c := server.NewClient(hs.URL, hc)
	bg := context.Background()

	sess, err := c.Open(bg, server.OpenRequest{Subject: "reader", Clearance: "l3", DB: "brown"})
	if err != nil {
		t.Fatal(err)
	}
	const query = "L[p0(K: a -C-> V)]"
	warm, err := c.QueryContext(bg, server.QueryRequest{Session: sess.Session, Query: query})
	if err != nil {
		t.Fatal(err)
	}
	baseline := len(warm.Answers)

	// Invalidate the cached answer: the entry stays in the cache, marked
	// stale, instead of vanishing. invalidate remembers the write's epoch:
	// every brownout answer was computed before it.
	var writeEpoch uint64
	invalidate := func() {
		up, err := c.Assert(bg, sess.Session, "l0[p0(brown: a -l0-> v0)].")
		if err != nil {
			t.Fatalf("invalidating assert: %v", err)
		}
		writeEpoch = up.Epoch
	}
	invalidate()

	// Saturate: a flood of distinct (uncached) queries keeps the limiter
	// full and the queue deep. Each flood request holds pause's read lock,
	// so a re-invalidation write can stop the flood and run on an idle
	// controller: a cost-8 write exceeds the cost-4 limit and is admitted
	// only then.
	floodCtx, stopFlood := context.WithCancel(bg)
	defer stopFlood()
	var flood sync.WaitGroup
	var pause sync.RWMutex
	for i := 0; i < 32; i++ {
		flood.Add(1)
		go func(i int) {
			defer flood.Done()
			for n := 0; floodCtx.Err() == nil; n++ {
				pause.RLock()
				c.QueryContext(floodCtx, server.QueryRequest{ //nolint:errcheck // shed/timeouts expected
					Session: sess.Session,
					Query:   fmt.Sprintf("l3[p1(flood%d_%d: a -l0-> V)]", i, n),
				})
				pause.RUnlock()
			}
		}(i)
	}

	deadline := time.Now().Add(15 * time.Second)
	// awaitShedding blocks until the flood is being shed, so the next
	// probe meets a saturated controller.
	awaitShedding := func() {
		shed := srv.Stats().Admission.Shed
		for srv.Stats().Admission.Shed == shed {
			if time.Now().After(deadline) {
				t.Fatalf("the flood never saturated admission: %+v", srv.Stats().Admission)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Probe the invalidated query raw so the response headers are visible.
	// A probe that slips through admission recomputes and re-caches the
	// answer — re-invalidate and keep trying until a shed probe is served
	// stale.
	probe := func() (*server.QueryResponse, string, error) {
		body, _ := json.Marshal(server.QueryRequest{Session: sess.Session, Query: query})
		resp, err := hc.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("probe status %d", resp.StatusCode)
		}
		var qr server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			return nil, "", err
		}
		return &qr, resp.Header.Get("X-Multilog-Stale"), nil
	}

	for {
		awaitShedding()
		resp, header, err := probe()
		if err == nil && resp.StaleMS > 0 {
			// The brownout answer: marked stale in the body and on the wire,
			// flagged cached, carrying the invalidated (pre-write) answers.
			if ms, herr := strconv.ParseInt(header, 10, 64); herr != nil || ms < 1 {
				t.Fatalf("stale response carried X-Multilog-Stale=%q, want >= 1", header)
			}
			if !resp.Cached {
				t.Error("stale brownout answer not flagged Cached")
			}
			// The stale entry is whichever snapshot a write retired: the
			// pre-write answer or a re-cached post-write one (the asserted
			// fact adds exactly one row; re-asserting it adds none).
			if n := len(resp.Answers); n != baseline && n != baseline+1 {
				t.Errorf("stale answer has %d rows, want the invalidated %d or %d", n, baseline, baseline+1)
			}
			if resp.Epoch >= writeEpoch {
				t.Errorf("stale answer reports epoch %d, want the epoch it was computed at, below the invalidating write's %d",
					resp.Epoch, writeEpoch)
			}
			break
		}
		if err == nil && resp.StaleMS == 0 {
			// The probe was admitted, or hit the answer an admitted probe
			// re-cached; pause the flood, push the answer back to stale and
			// try again.
			func() {
				pause.Lock()
				defer pause.Unlock()
				invalidate()
			}()
		}
		if time.Now().After(deadline) {
			st, _ := c.Stats(bg)
			t.Fatalf("no brownout answer within deadline (last err=%v, admission=%+v)", err, st.Admission)
		}
	}

	stopFlood()
	flood.Wait()
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Admission.StaleServed == 0 {
		t.Errorf("stats do not report the brownout: %+v", st.Admission)
	}
}
