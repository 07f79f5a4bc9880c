package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// workers is the number of closed-loop callers; each waits for its reply
// before sending the next request, over a client limited to two connections.
const workers = 2

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	why  string
	// writeEvery makes every writeEvery-th operation of a caller a write (0:
	// none). A fixed stride, not a coin flip: with writes costing a thousand
	// reads, a drawn read/write ratio would move ops_per_s by ~10% per run.
	writeEvery int
	// filtered reads draw `L[pN(K: a -C-> V)], K != kI`, about 36k distinct
	// cache keys; otherwise reads are full scans over the 46 predicates,
	// 690 keys across the 15 sessions.
	filtered bool
	// sampleEvery: the oracle records one read in this many (1 = every
	// distinct key on the read workloads).
	sampleEvery int
	// oracleLimit caps how many recorded reads the oracle re-derives; a
	// seeded choice picks them when more were recorded.
	oracleLimit int
}

var workloads = []workloadSpec{
	{name: "read-cached",
		why:         "690 full-scan keys fit the 4096-entry result cache and are all warmed, so reads are cache hits: transport, JSON and the cache probe",
		sampleEvery: 1,
		oracleLimit: 1000},
	{name: "read-uncached",
		why:         "about 36k filtered-scan keys overflow the cache, so every read pays parse, admission, match, answer sort, render and encode",
		filtered:    true,
		sampleEvery: 32,
		oracleLimit: 1000},
	{name: "write-mix",
		why:         "90/10 cached-style reads and durable single-fact writes: lint, clone, reduce, advance at every warm clearance, WAL fsync, invalidation",
		writeEvery:  10,
		sampleEvery: 16,
		oracleLimit: 32},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// cachedQueries is the read-cached working set: a full scan of every base
// and rule-derived predicate.
func cachedQueries() []string {
	var qs []string
	for p := 0; p < numPreds; p++ {
		qs = append(qs, fmt.Sprintf("L[p%d(K: a -C-> V)]", p))
	}
	for q := 0; q < numRules; q++ {
		qs = append(qs, fmt.Sprintf("L[q%d(K: d -C-> V)]", q))
	}
	return qs
}

// privateFact is a base fact only one worker ever asserts and retracts.
type privateFact struct {
	level  int
	clause string
}

// op is one generated request.
type op struct {
	write   bool
	sess    int
	query   string
	fact    privateFact
	retract bool
}

// generator draws a worker's request stream from its seed. Writes alternate:
// assert a new private fact at a uniformly dealt level, then retract it, so
// the program size stays steady. A write goes through a session whose
// clearance dominates the fact's level, so it is always authorized.
type generator struct {
	r       *rand.Rand
	spec    workloadSpec
	worker  int
	queries []string
	live    *privateFact
	nextID  int
	ops     int
	levels  []int // decks for draw
	preds   []int
	reads   []int
}

func newGenerator(spec workloadSpec, seed int64, worker int) *generator {
	return &generator{r: rand.New(rand.NewSource(seed*7919 + int64(worker)*104729 + 1)),
		spec: spec, worker: worker, queries: cachedQueries()}
}

func (g *generator) next() op {
	g.ops++
	// The callers' strides are offset by half a stride.
	if g.spec.writeEvery > 0 && (g.ops+g.worker*g.spec.writeEvery/2)%g.spec.writeEvery == 0 {
		return g.nextWrite()
	}
	return g.nextRead()
}

// nextRead deals (session, predicate) pairs from a deck, so every pair is
// read equally often and the read mix, whose answers per read range from
// none to hundreds, varies little from seed to seed. The excluded key of a
// filtered scan is drawn freely.
func (g *generator) nextRead() op {
	sessions := numLevels * len(modes)
	if g.spec.filtered {
		k := g.draw(&g.reads, sessions*numPreds)
		return op{sess: k / numPreds, query: fmt.Sprintf("L[p%d(K: a -C-> V)], K != k%d",
			k%numPreds, g.r.Intn(numFacts/2+1))}
	}
	k := g.draw(&g.reads, sessions*len(g.queries))
	return op{sess: k / len(g.queries), query: g.queries[k%len(g.queries)]}
}

func (g *generator) nextWrite() op {
	o := op{write: true}
	if g.live != nil {
		o.fact, o.retract = *g.live, true
		g.live = nil
	} else {
		lvl := g.draw(&g.levels, numLevels)
		o.fact = privateFact{level: lvl, clause: fmt.Sprintf("l%d[p%d(w%dx%d: a -l%d-> v0)].",
			lvl, g.draw(&g.preds, numPreds), g.worker, g.nextID, lvl)}
		g.nextID++
		g.live = &o.fact
	}
	clearance := o.fact.level + g.r.Intn(numLevels-o.fact.level)
	o.sess = clearance*len(modes) + g.r.Intn(len(modes))
	return o
}

// draw deals the next value of 0..n-1 from a shuffled deck, reshuffling when
// it runs out: every value comes up equally often in each round. For writes,
// which levels and predicates a window touches, and hence how much of the
// cache it invalidates, then varies little from seed to seed.
func (g *generator) draw(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = g.r.Perm(n)
	}
	v := (*deck)[0]
	*deck = (*deck)[1:]
	return v
}

// writeEntry is one acknowledged write and the epoch it produced.
type writeEntry struct {
	epoch   uint64
	clauses string
	retract bool
}

// readSample is one read the oracle re-checks: which session asked what,
// the epoch the answer was served at, and a digest of the answers' JSON.
type readSample struct {
	sess   int
	query  string
	epoch  uint64
	digest [32]byte
}

// answerDigest hashes the canonical JSON of rendered answers; encoding/json
// sorts map keys, so equal answer lists give equal bytes.
func answerDigest(answers []map[string]string) ([32]byte, error) {
	b, err := json.Marshal(answers)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// tally is what the callers measured in one window.
type tally struct {
	elapsed     time.Duration
	reads       []time.Duration
	writes      []time.Duration
	attempted   int
	failed      int
	firstErr    error
	answers     int64
	cachedReads int64
	undominated int
	samples     []readSample
	rywViolated int
}

func (t *tally) add(o *tally) {
	t.reads = append(t.reads, o.reads...)
	t.writes = append(t.writes, o.writes...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.answers += o.answers
	t.cachedReads += o.cachedReads
	t.undominated += o.undominated
	t.samples = append(t.samples, o.samples...)
	t.rywViolated += o.rywViolated
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// run state shared by the callers of one instance.
type runState struct {
	in    *instance
	acked []atomic.Uint64 // per session: newest epoch a write through it produced

	mu       sync.Mutex
	writeLog []writeEntry
	seen     map[string]bool // oracle keys already recorded (read workloads)
}

func newRunState(in *instance) *runState {
	return &runState{in: in, acked: make([]atomic.Uint64, len(in.tokens)), seen: map[string]bool{},
		writeLog: append([]writeEntry(nil), in.warmWrites...)}
}

func (rs *runState) logWrite(sess int, e writeEntry) {
	for {
		cur := rs.acked[sess].Load()
		if e.epoch <= cur || rs.acked[sess].CompareAndSwap(cur, e.epoch) {
			break
		}
	}
	rs.mu.Lock()
	rs.writeLog = append(rs.writeLog, e)
	rs.mu.Unlock()
}

// caller is one closed-loop worker's state across windows.
type caller struct {
	b       *bench
	rs      *runState
	gen     *generator
	reads   int
	corrupt bool // test hook: falsify the first recorded answer
	layers  *layerState
}

// sampleKey decides, from the seed alone, whether the oracle records a
// first-seen read key on the read workloads.
func (c *caller) sampleKey(key string) bool {
	every := c.b.spec.sampleEvery
	if every <= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", c.b.seed, key)
	return h.Sum64()%uint64(every) == 0
}

// record notes a served read for the oracle: on the read workloads every
// sampled distinct (session, query) once, on write-mix every sampleEvery-th
// read with the epoch it was served at.
func (c *caller) record(t *tally, o op, resp *server.QueryResponse) error {
	c.reads++
	if c.b.spec.writeEvery > 0 {
		if (c.reads-1)%c.b.spec.sampleEvery != 0 {
			return nil
		}
	} else {
		key := fmt.Sprintf("%d|%s", o.sess, o.query)
		c.rs.mu.Lock()
		seen := c.rs.seen[key]
		c.rs.seen[key] = true
		c.rs.mu.Unlock()
		if seen || !c.sampleKey(key) {
			return nil
		}
	}
	answers := resp.Answers
	if c.corrupt {
		c.corrupt = false
		answers = corruptAnswers(answers)
	}
	d, err := answerDigest(answers)
	if err != nil {
		return err
	}
	t.samples = append(t.samples, readSample{sess: o.sess, query: o.query, epoch: resp.Epoch, digest: d})
	return nil
}

// corruptAnswers returns a copy of answers with one value altered (or one
// answer added to an empty list).
func corruptAnswers(answers []map[string]string) []map[string]string {
	out := append([]map[string]string(nil), answers...)
	if len(out) == 0 {
		return append(out, map[string]string{"V": "corrupted"})
	}
	m := map[string]string{}
	for k, v := range out[0] {
		m[k] = v + "x"
	}
	out[0] = m
	return out
}

// doRead sends one read through the client, or in-process when traced.
func (c *caller) doRead(ctx context.Context, o op, rt *reqTrace) (*server.QueryResponse, error) {
	need := c.rs.acked[o.sess].Load()
	var resp *server.QueryResponse
	var err error
	if rt != nil {
		resp, err = c.layers.replayRead(ctx, c.rs.in, o, rt)
	} else {
		resp, err = c.rs.in.client.QueryContext(ctx, server.QueryRequest{Session: c.rs.in.tokens[o.sess], Query: o.query})
	}
	if err != nil {
		return nil, err
	}
	if resp.Epoch < need {
		return resp, fmt.Errorf("read-your-writes: session %d read epoch %d after its write at epoch %d", o.sess, resp.Epoch, need)
	}
	return resp, nil
}

// doWrite sends one assert or retract and logs it with its epoch.
func (c *caller) doWrite(ctx context.Context, o op, rt *reqTrace) error {
	var resp *server.UpdateResponse
	var err error
	if rt != nil {
		resp, err = c.layers.replayWrite(ctx, c.rs.in, o, rt)
	} else if o.retract {
		resp, err = c.rs.in.client.Retract(ctx, c.rs.in.tokens[o.sess], o.fact.clause)
	} else {
		resp, err = c.rs.in.client.Assert(ctx, c.rs.in.tokens[o.sess], o.fact.clause)
	}
	if err != nil {
		return err
	}
	if resp.Changed != 1 {
		return fmt.Errorf("write %q changed %d clauses, want 1", o.fact.clause, resp.Changed)
	}
	c.rs.logWrite(o.sess, writeEntry{epoch: resp.Epoch, clauses: o.fact.clause, retract: o.retract})
	return nil
}

// step runs one operation and accounts for it.
func (c *caller) step(ctx context.Context, t *tally, o op, rt *reqTrace) {
	t.attempted++
	start := time.Now()
	if o.write {
		err := c.doWrite(ctx, o, rt)
		d := time.Since(start)
		if err != nil {
			t.fail(err)
			return
		}
		t.writes = append(t.writes, d)
		if o.fact.level > 0 { // clearance l0 is warm and does not dominate it
			t.undominated++
		}
		return
	}
	resp, err := c.doRead(ctx, o, rt)
	d := time.Since(start)
	if err != nil {
		if resp != nil {
			t.rywViolated++
		}
		t.fail(err)
		return
	}
	t.reads = append(t.reads, d)
	t.answers += int64(len(resp.Answers))
	if resp.Cached {
		t.cachedReads++
	}
	if err := c.record(t, o, resp); err != nil {
		t.fail(err)
	}
}

// runWindow drives the callers in a closed loop for d and merges what they
// measured. With traceEvery > 0, one request in traceEvery per caller runs
// in-process with its layer calls replayed under spans.
func (b *bench) runWindow(ctx context.Context, callers []*caller, d time.Duration, traceEvery int, tr *tracer) *tally {
	var wg sync.WaitGroup
	parts := make([]tally, len(callers))
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range callers {
		wg.Add(1)
		go func(c *caller, t *tally) {
			defer wg.Done()
			for n := 1; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				o := c.gen.next()
				var rt *reqTrace
				if traceEvery > 0 && c.traced(o, n, traceEvery) {
					rt = tr.request()
				}
				c.step(ctx, t, o, rt)
				rt.finish()
			}
		}(c, &parts[i])
	}
	wg.Wait()
	total := &tally{elapsed: time.Since(start)}
	for i := range parts {
		total.add(&parts[i])
	}
	return total
}

// traced picks the requests a traced window replays layer by layer: every
// traceEvery-th read, and both halves (assert and retract) of every second
// private fact, so the replay's own copy of the program sees matched pairs.
func (c *caller) traced(o op, n, traceEvery int) bool {
	if o.write {
		h := fnv.New32a()
		h.Write([]byte(o.fact.clause))
		return h.Sum32()%2 == 0
	}
	return n%traceEvery == 0
}

// warm readies an instance for measurement: one read per session prepares
// every clearance's reduction; on the cached-read working set, every key is
// read once to fill the result cache; on write-mix one assert/retract pair
// pays the first write's switch of route at every warm clearance.
func (b *bench) warm(ctx context.Context, in *instance) error {
	for i := range in.tokens {
		if _, err := in.client.QueryContext(ctx, server.QueryRequest{Session: in.tokens[i], Query: "L[p0(K: a -C-> V)]"}); err != nil {
			return err
		}
	}
	if !b.spec.filtered {
		var keys []op
		for i := range in.tokens {
			for _, q := range cachedQueries() {
				keys = append(keys, op{sess: i, query: q})
			}
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(keys); i += workers {
					_, err := in.client.QueryContext(ctx, server.QueryRequest{Session: in.tokens[keys[i].sess], Query: keys[i].query})
					if err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if b.spec.writeEvery > 0 {
		const warmFact = "l0[p0(warm: a -l0-> v0)]."
		for _, retract := range []bool{false, true} {
			update := in.client.Assert
			if retract {
				update = in.client.Retract
			}
			resp, err := update(ctx, in.tokens[0], warmFact)
			if err != nil {
				return err
			}
			in.warmWrites = append(in.warmWrites, writeEntry{epoch: resp.Epoch, clauses: warmFact, retract: retract})
		}
	}
	return nil
}
