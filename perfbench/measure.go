package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/multilog"
	"repro/internal/server"
	"repro/internal/wal"
)

// endToEnd and perLayer are the metrics the result line carries with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "read_p50_ms", "read_p99_ms",
		"write_p50_ms", "write_p90_ms", "recover_s", "mem_heap_mb"}
	perLayer = func() []string {
		names := []string{
			"server.transport_us", "server.response_bytes", "server.answers_per_read",
			"server.cache_hit_rate", "server.cache_evictions", "server.cache_invalidations_per_write",
			"admission.admitted", "admission.shed", "admission.limit",
			"multilog.answers_sorted", "multilog.advance_incremental_ratio",
			"compile.plan_hit_rate", "compile.compile_ms",
			"wal.syncs_per_write", "wal.bytes_per_write", "wal.bytes_per_user_byte",
			"wal.checkpoints", "wal.replay_records",
			"runtime.allocs_per_op", "runtime.gc_pause_ms",
			"trace.ops_per_s", "trace.untraced_ops_per_s", "trace.ops_ratio",
			"workload.cache_hit_share", "workload.undominated_write_share", "oracle.checked",
		}
		for _, l := range layerSpans {
			names = append(names, l.metric, selfName(l.metric))
		}
		return names
	}()
)

// layerSpans maps each traced span to the per-layer metric reporting its
// median duration; selfName(metric) reports its median self time.
var layerSpans = []struct{ span, metric, unit string }{
	{"server.query", "server.query_us", "us"},
	{"server.encode", "server.encode_us", "us"},
	{"server.decode", "server.decode_us", "us"},
	{"server.update", "server.update_ms", "ms"},
	{"server.recover", "server.recover_ms", "ms"},
	{"multilog.parse_goals", "multilog.parse_goals_us", "us"},
	{"multilog.match", "multilog.match_us", "us"},
	{"multilog.reduce", "multilog.reduce_ms", "ms"},
	{"multilog.advance", "multilog.advance_ms", "ms"},
	{"multilog.clone", "multilog.clone_ms", "ms"},
	{"multilog.impact", "multilog.impact_us", "us"},
	{"compile.prepare", "compile.prepare_ms", "ms"},
	{"lint.multilog", "lint.multilog_ms", "ms"},
	{"wal.append", "wal.append_ms", "ms"},
	{"wal.open", "wal.recovery_ms", "ms"},
	{"bench.read", "bench.read_us", "us"},
	{"bench.write", "bench.write_ms", "ms"},
	{"bench.recover", "bench.recover_ms", "ms"},
}

// selfName turns "x.y_us" into "x.y_self_us".
func selfName(metric string) string {
	i := strings.LastIndexByte(metric, '_')
	return metric[:i] + "_self" + metric[i:]
}

const (
	// probeWrites is how many writes (assert/retract pairs) follow the
	// timed window on the read workloads, so that every workload reports
	// write latency: on the read workloads it is a quiet server's. 30 facts
	// deal each of the 5 levels and 6 predicates equally often; a write's
	// cost depends on both, and with 10 facts the probe's write_p50_ms
	// spread 0.24 over ten seeds.
	probeWrites = 60
	// traceEvery: a traced window replays one read in this many per caller.
	traceEvery = 8
	// Recovery is timed at least minRecoveries times and then again until
	// recoverBudget is spent (at most maxRecoveries); recover_s is the
	// median. A read workload's log recovers in ~0.25 s, write-mix's in ~0.5 s.
	minRecoveries = 5
	maxRecoveries = 25
	recoverBudget = 4 * time.Second
	// spanDumpLimit caps the spans written to the dump file.
	spanDumpLimit = 20000
)

// measure runs the set-ups, the timed window(s), the oracle and recovery,
// and returns every metric it measured.
func (b *bench) measure(ctx context.Context) (*metrics, *result, error) {
	m := &metrics{}
	res := &result{Correct: true}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}

	var setupTimes []float64
	var in *instance
	var plan0 compile.CacheStats
	for i := 0; i < b.setups; i++ {
		if in != nil {
			in.close()
		}
		plan0 = compile.DefaultCache.Stats()
		inst, d, err := b.setup(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		in = inst
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer in.close()
	m.set("setup_s", median(setupTimes), "s")

	rs := newRunState(in)
	callers := make([]*caller, workers)
	for w := range callers {
		callers[w] = &caller{b: b, rs: rs, gen: newGenerator(b.spec, b.seed, w), corrupt: b.corrupt && w == 0}
	}

	// Untraced window: every end-to-end figure comes from here.
	runtime.GC() // the window starts without the set-ups' garbage
	st0, bytes0 := in.srv.Stats(), walBytes(in.dir)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	win := b.runWindow(ctx, callers, b.window, 0, nil)
	runtime.ReadMemStats(&mem1)
	st1, plan1 := in.srv.Stats(), compile.DefaultCache.Stats()

	all := &tally{}
	all.add(win)
	writes := &tally{}
	writes.add(win)
	if b.spec.writeEvery == 0 && !b.trace {
		p := callers[0].probe(ctx, nil)
		all.add(p)
		writes.add(p)
	}
	runtime.GC()
	var mem2 runtime.MemStats
	runtime.ReadMemStats(&mem2)

	untracedOps := float64(win.attempted-win.failed) / win.elapsed.Seconds()
	m.set("ops_per_s", untracedOps, "1/s")
	clientP50 := percentile(msList(win.reads), 0.5)
	m.set("read_p50_ms", clientP50, "ms")
	m.set("read_p99_ms", percentile(msList(win.reads), 0.99), "ms")
	m.set("write_p50_ms", percentile(msList(writes.writes), 0.5), "ms")
	m.set("write_p90_ms", percentile(msList(writes.writes), 0.9), "ms")
	m.set("mem_heap_mb", float64(mem2.HeapInuse)/(1<<20), "MB")
	m.set("reads", float64(len(win.reads)), "count")
	m.set("writes", float64(len(writes.writes)), "count")

	// Traced window, then the traced write probe on the read workloads.
	var tr *tracer
	var ls *layerState
	if b.trace {
		tr = newTracer()
		rt := tr.request()
		var err error
		ls, err = newLayerState(ctx, b.work, in.src, rt)
		rt.finish()
		if err != nil {
			return nil, nil, fmt.Errorf("preparing layer replays: %w", err)
		}
		defer ls.close()
		for _, c := range callers {
			c.layers = ls
		}
		traced := b.runWindow(ctx, callers, b.window, traceEvery, tr)
		all.add(traced)
		if b.spec.writeEvery == 0 {
			all.add(callers[0].probe(ctx, tr))
		}
		tracedOps := float64(traced.attempted-traced.failed) / traced.elapsed.Seconds()
		m.set("trace.ops_per_s", tracedOps, "1/s")
		m.set("trace.untraced_ops_per_s", untracedOps, "1/s")
		m.set("trace.ops_ratio", ratio(tracedOps, untracedOps), "ratio")
	}
	stEnd, bytesEnd := in.srv.Stats(), walBytes(in.dir)
	res.Attempted, res.Failed = all.attempted, all.failed
	m.set("error_rate", ratio(float64(all.failed), float64(all.attempted)), "ratio")
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first request error: %v\n", all.firstErr)
	}
	if all.rywViolated > 0 {
		fail("%d reads missed their session's own acknowledged write", all.rywViolated)
	}

	// Layer counters that need no spans.
	hits := float64(st1.Cache.Hits - st0.Cache.Hits)
	m.set("server.cache_hit_rate", ratio(hits, hits+float64(st1.Cache.Misses-st0.Cache.Misses)), "ratio")
	m.set("server.cache_evictions", float64(st1.Cache.Evictions-st0.Cache.Evictions), "count")
	m.set("server.cache_invalidations_per_write", ratio(float64(stEnd.Cache.Invalidations-st0.Cache.Invalidations), float64(len(all.writes))), "count")
	m.set("server.answers_per_read", ratio(float64(win.answers), float64(len(win.reads))), "count")
	m.set("workload.cache_hit_share", ratio(float64(win.cachedReads), float64(len(win.reads))), "ratio")
	m.set("workload.undominated_write_share", ratio(float64(all.undominated), float64(len(all.writes))), "ratio")
	if st1.Admission != nil {
		m.set("admission.admitted", float64(st1.Admission.Admitted-st0.Admission.Admitted), "count")
		m.set("admission.shed", float64(stEnd.Admission.Shed-st0.Admission.Shed), "count")
		m.set("admission.limit", stEnd.Admission.Limit, "cost")
	}
	planHits := float64(plan1.Hits - plan0.Hits)
	m.set("compile.plan_hit_rate", ratio(planHits, planHits+float64(plan1.Misses-plan0.Misses)), "ratio")
	m.set("compile.compile_ms", ratio(float64(plan1.CompileNS-plan0.CompileNS)/1e6, float64(plan1.Compiles-plan0.Compiles)), "ms")
	appended := float64(stEnd.Durability.Appended - st0.Durability.Appended)
	m.set("wal.syncs_per_write", ratio(float64(stEnd.Durability.Syncs-st0.Durability.Syncs), appended), "count")
	m.set("wal.bytes_per_write", ratio(float64(bytesEnd-bytes0), appended), "B")
	m.set("wal.bytes_per_user_byte", ratio(float64(bytesEnd-bytes0), float64(userBytes(rs.writeLog[len(in.warmWrites):]))), "ratio")
	m.set("wal.checkpoints", float64(stEnd.Durability.CheckpointsWritten-st0.Durability.CheckpointsWritten), "count")
	m.set("runtime.allocs_per_op", ratio(float64(mem1.Mallocs-mem0.Mallocs), float64(win.attempted)), "count")
	m.set("runtime.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6, "ms")
	if ls != nil {
		m.set("server.response_bytes", ratio(float64(ls.respBytes.Load()), float64(ls.responses.Load())), "B")
		m.set("multilog.answers_sorted", ratio(float64(ls.sorted.Load()), float64(ls.matches.Load())), "count")
		m.set("multilog.advance_incremental_ratio", ratio(float64(ls.incremental.Load()), float64(ls.advances.Load())), "ratio")
	}

	// Oracle over what was served, then over the live server's final state.
	checked := 0
	orc, err := newOracle(in.src, rs.writeLog)
	if err != nil {
		fail("%v", err)
	} else {
		n, err := orc.checkSamples(ctx, all.samples, b.spec.oracleLimit, b.seed)
		checked += n
		if err != nil {
			fail("%v", err)
		}
		if b.spec.writeEvery > 0 {
			n, err := orc.checkServer(ctx, in.srv, "live")
			checked += n
			if err != nil {
				fail("%v", err)
			}
		}
	}

	// Stop without a final checkpoint, then time recovery.
	if err := in.stop(); err != nil {
		return nil, nil, fmt.Errorf("stopping server: %w", err)
	}
	// Recovery runs beside neither the stopped server's heap nor the
	// oracle's reductions, so the collector has the same little to scan
	// during it on every run. (With the oracle's final-epoch reductions
	// kept, read-cached's recover_s spread 0.27 over ten seeds.)
	in.srv, in.sessions = nil, nil
	if orc != nil {
		orc.reds = map[[2]uint64]*multilog.Reduction{}
	}
	var recTimes []float64
	var recTotal time.Duration
	for i := 0; i < minRecoveries || (recTotal < recoverBudget && i < maxRecoveries); i++ {
		runtime.GC()
		rt := tr.request()
		srv, store, d, replayed, err := recoverServer(in.dir, rt)
		rt.finish()
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		recTimes = append(recTimes, d.Seconds())
		recTotal += d
		m.set("wal.replay_records", float64(replayed), "count")
		if i == 0 && orc != nil {
			n, err := orc.checkRecovered(ctx, srv, b.spec.writeEvery > 0)
			checked += n
			if err != nil {
				fail("%v", err)
			}
		}
		if err := store.Close(); err != nil {
			return nil, nil, fmt.Errorf("closing recovered wal: %w", err)
		}
	}
	m.set("recover_s", median(recTimes), "s")
	m.set("oracle.checked", float64(checked), "count")

	if tr != nil {
		spans := tr.snapshot()
		sum := summarize(spans)
		for _, l := range layerSpans {
			s := sum[l.span]
			m.set(l.metric, durIn(s.P50, l.unit), l.unit)
			m.set(selfName(l.metric), durIn(s.SelfP50, l.unit), l.unit)
		}
		inproc := sum["server.query"].P50 + sum["server.encode"].P50 + sum["server.decode"].P50
		m.set("server.transport_us", clientP50*1e3-us(inproc), "us")
		path, err := b.dumpSpans(m, spans)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	return m, res, nil
}

// probe sends probeWrites writes from one caller with nothing else running.
// An untimed assert/retract pair goes first: it pays the first write's switch
// of route at every warm clearance, which write-mix pays in its set-up.
func (c *caller) probe(ctx context.Context, tr *tracer) *tally {
	warm := &tally{}
	fact := privateFact{level: 0, clause: "l0[p0(probewarm: a -l0-> v0)]."}
	for _, retract := range []bool{false, true} {
		c.step(ctx, warm, op{write: true, fact: fact, retract: retract}, nil)
	}
	t := &tally{attempted: warm.attempted, failed: warm.failed, firstErr: warm.firstErr}
	for i := 0; i < probeWrites; i++ {
		rt := tr.request()
		c.step(ctx, t, c.gen.nextWrite(), rt)
		rt.finish()
	}
	return t
}

// recoverServer times wal.Open plus Server.Recover on a stopped server's
// data directory, until the server is ready.
func recoverServer(dir string, rt *reqTrace) (*server.Server, *wal.Store, time.Duration, int, error) {
	start := time.Now()
	rt.begin("bench.recover")
	defer rt.end()
	rt.begin("wal.open")
	store, rec, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	rt.end()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	srv := server.New(serverConfig(store))
	rt.begin("server.recover")
	err = srv.Recover(rec, nil)
	rt.end()
	d := time.Since(start)
	if err == nil && srv.Recovering() {
		err = fmt.Errorf("server still recovering after Recover returned")
	}
	if err != nil {
		_ = store.Close() // reporting the recovery error instead
		return nil, nil, 0, 0, err
	}
	return srv, store, d, len(rec.Records), nil
}

func userBytes(ws []writeEntry) int {
	n := 0
	for _, w := range ws {
		n += len(w.clauses)
	}
	return n
}

// walBytes is the size of a data directory's log segments.
func walBytes(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")) // the pattern is well-formed
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func durIn(d time.Duration, unit string) float64 {
	if unit == "us" {
		return us(d)
	}
	return ms(d)
}

// dumpSpans writes the metrics and the spans of a traced run beside each
// other in one JSON file under the work directory.
func (b *bench) dumpSpans(m *metrics, spans []span) (string, error) {
	dir := filepath.Join(b.work, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace.json", b.workload, b.seed))
	total := len(spans)
	if len(spans) > spanDumpLimit {
		spans = spans[:spanDumpLimit]
	}
	body, err := json.Marshal(struct {
		Workload   string                 `json:"workload"`
		Seed       int64                  `json:"seed"`
		Metrics    map[string]metricValue `json:"metrics"`
		SpansTotal int                    `json:"spans_total"`
		Spans      []span                 `json:"spans"`
	}{b.workload, b.seed, m.vals, total, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
