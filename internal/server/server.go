// Package server is multilogd's serving layer: a concurrent MultiLog query
// server over HTTP. It turns the single-caller library into the paper's
// actual access pattern — many subjects, each cleared at a label and a
// belief mode, asking the same MLS database different questions at the
// same time.
//
// The architecture is three caches deep, each invalidated by the next:
//
//   - prepared programs: each database is parsed, linted and
//     admissibility-checked once at load, behind a copy-on-write snapshot
//     (assert/retract clones the database, re-lints, and swaps a pointer;
//     readers never block on writers);
//   - compiled reductions: per (snapshot, clearance), the §6 reduction and
//     its materialized minimal model are built once, through the compiled
//     engine, and shared read-only by every session at that clearance
//     (QueryPrepared), so the hot path is match-only. A write rebuilds
//     every warm clearance on the new snapshot the same way; after a
//     fact-only write that re-runs the cached plan;
//   - result cache: complete answers keyed by (database, load generation,
//     clearance, belief mode, effective query), one LRU. Each entry
//     records the translated predicates its answers depend on, and a write
//     invalidates only the entries its impact reaches (everything, for a
//     rule write) before any query can see the new program. Under brownout
//     an invalidated entry stays in the LRU marked stale.
//
// Every request runs under the internal/resource governor: per-request
// wall-clock deadlines plus fact/step budgets, with typed errors, and
// panic containment at the handler boundary. Overload protection is an
// adaptive, cost-aware admission controller (internal/admission) in front
// of queries and writes, shedding with a typed 429 and, with MaxStale,
// answering shed reads from stale cache entries; a concurrent-session cap
// bounds sessions with a typed overload error.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/compile"
	"repro/internal/faultinject"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// MaxSessions caps concurrently open sessions; opening beyond the cap
	// fails with a typed *OverloadError (HTTP 503). Default 256; negative
	// means uncapped.
	MaxSessions int
	// CacheEntries bounds the result cache (LRU). Default 4096; negative
	// disables caching.
	CacheEntries int
	// QueryTimeout is the per-request wall-clock ceiling. Requests may ask
	// for less, never more. Default 10s; negative means no deadline.
	QueryTimeout time.Duration
	// Limits is the per-request resource budget ceiling (facts/steps/
	// memory); requests may tighten it. Zero fields are unlimited.
	Limits resource.Limits
	// Logf, when set, receives one line per notable event (loads, updates,
	// drains). nil discards.
	Logf func(format string, args ...any)
	// WAL, when set, is the open write-ahead log: every load and update is
	// appended (and, under wal.SyncAlways, fsynced) before it is acknowledged
	// or visible. A server built with WAL starts in the recovering state;
	// call Recover with the wal.Recovery from wal.Open before serving
	// writes. nil turns durability off. Serve owns the store's lifecycle:
	// it writes a final checkpoint and closes the WAL on drain.
	WAL *wal.Store
	// CheckpointInterval is the cadence of background checkpoints when WAL
	// is set. Default 30s; negative disables timed checkpoints.
	CheckpointInterval time.Duration
	// CheckpointEvery also triggers a checkpoint after that many records
	// accumulate past the last one. Default 1024; negative disables.
	CheckpointEvery int64
	// Role selects primary (default: accepts writes) or follower (read
	// replica: writes fail with *NotPrimaryError until Promote). A follower
	// requires WAL — its mirrored log is its durability and its claim to
	// promotion.
	Role Role
	// PrimaryAddr is the advertised primary address a follower hands to
	// rejected writers (and /v1/repl/status reports).
	PrimaryAddr string
	// StreamFaults, when set, is consulted once per outgoing replication
	// stream frame (faultinject.ReplStreamFrame), once per replicated record
	// applied (faultinject.ReplApplyRecord), and once per admitted query
	// (faultinject.ServerQueryWork); the chaos harnesses use it to corrupt,
	// short-write, kill mid-stream, force a divergence, or inject latency
	// spikes. nil disables.
	StreamFaults faultinject.FilePlan
	// MaxInflight, when positive, enables the admission controller: an AIMD
	// concurrency ceiling, in cost units, over the gated work classes
	// (reads ≪ writes ≪ prepares; health and replication always bypass).
	// Beyond the limit requests queue FIFO per priority, are shed
	// CoDel-style once queue delay persists, and rejected requests get a
	// typed 429 with a computed Retry-After. 0 disables admission.
	MaxInflight int
	// MaxStale bounds brownout serving: while the admission controller is
	// shedding, reads may be answered from invalidated result-cache entries
	// at most this old instead of rejected, marked by QueryResponse.StaleMS
	// and the X-Multilog-Stale header. 0 disables brownout. Requires
	// MaxInflight > 0 to ever trigger.
	MaxStale time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0 // sessionManager: 0 = uncapped
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // resultCache: 0 = disabled
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.QueryTimeout < 0 {
		c.QueryTimeout = 0 // no deadline
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1024
	}
	return c
}

// Server is a multilogd instance: loaded programs, live sessions, the
// result cache and the HTTP handler. Create with New, add databases with
// Load, then serve Handler (or ListenAndServe for the full lifecycle).
type Server struct {
	cfg      Config
	sessions *sessionManager
	cache    *resultCache
	start    time.Time

	progMu   sync.RWMutex
	programs map[string]*preparedProgram

	queries  atomic.Int64
	qErrors  atomic.Int64
	qTrunc   atomic.Int64
	draining atomic.Bool
	inFlight sync.WaitGroup

	// Durability. walMu pairs every mutation's WAL append with its snapshot
	// swap (read side) against the checkpointer's capture-and-rotate (write
	// side), so a checkpoint's state and its log position always agree.
	wal         *wal.Store
	walMu       sync.RWMutex
	recovering  atomic.Bool
	replayDone  atomic.Int64
	replayTotal atomic.Int64
	recMu       sync.Mutex
	recStats    RecoveryStats
	ckptKick    chan struct{}

	// Replication. role flips exactly once (Promote); applied tracks the
	// newest seq a follower has applied; synced gates readiness until the
	// follower first catches up to the primary.
	role        atomic.Int32
	synced      atomic.Bool
	diverged    atomic.Bool // cleared only by the rebootstrap-on-diverge path
	applied     atomic.Uint64
	primaryMu   sync.Mutex
	primaryAddr string
	repl        ReplCounters
	streamEvN   atomic.Int64
	applyEvN    atomic.Int64

	// Overload protection. adm is nil when admission is disabled
	// (Config.MaxInflight == 0); staleServed counts brownout answers.
	adm         *admission.Controller
	staleServed atomic.Int64
	queryEvN    atomic.Int64
}

// New builds an empty server with cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: newSessionManager(cfg.MaxSessions),
		// Brownout answers only ever replace a shed, so without admission
		// there is nothing to keep stale entries for.
		cache:    newResultCache(cfg.CacheEntries, cfg.MaxStale > 0 && cfg.MaxInflight > 0),
		start:    time.Now(),
		programs: map[string]*preparedProgram{},
		wal:      cfg.WAL,
		ckptKick: make(chan struct{}, 1),
	}
	// A durable server boots not-ready: writes 503 until Recover runs.
	s.recovering.Store(cfg.WAL != nil)
	s.role.Store(int32(cfg.Role))
	s.primaryAddr = cfg.PrimaryAddr
	// A follower is not ready until it has caught up to the primary once.
	s.synced.Store(cfg.Role != RoleFollower)
	if cfg.MaxInflight > 0 {
		s.adm = admission.New(admission.Config{MaxInflight: cfg.MaxInflight})
	}
	return s
}

// Admission cost estimates, in controller cost units: a cached read never
// reaches admission at all, a compiled prepared query is match-only, a
// write clones/lints/swaps, and a first query at a clearance pays a full
// reduction build.
const (
	costRead    = 4
	costWrite   = 8
	costPrepare = 16
)

// admit asks the admission controller for a slot (nil controller admits
// everything). A context deadline hit while queued is reported as the
// governor's cancellation so it maps to 408, not 400.
func (s *Server) admit(ctx context.Context, pri admission.Priority, cost int) (*admission.Ticket, error) {
	t, err := s.adm.Admit(ctx, pri, cost)
	if err != nil && ctx.Err() != nil {
		var oe *admission.OverloadError
		if !errors.As(err, &oe) {
			return nil, fmt.Errorf("%w (while queued for admission)", resource.ErrCanceled)
		}
	}
	return t, err
}

// Load parses, lints and installs a MultiLog program under name. Programs
// with lint errors are rejected with a *LintError — a server never serves
// a program the static-analysis layer rejects. Loading an existing name
// replaces it (fresh epoch 1) and invalidates its cache entries.
func (s *Server) Load(name, src string) error {
	if s.Role() == RoleFollower {
		return &NotPrimaryError{Primary: s.PrimaryAddr()}
	}
	if name == "" {
		return fmt.Errorf("server: database name must be nonempty")
	}
	prog, diags, err := newPrepared(name, src, s.prepLimits())
	if err != nil {
		return err
	}
	for _, d := range diags {
		s.logf("load %s: %s", name, d)
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal != nil {
		payload, merr := json.Marshal(loadRecord{DB: name, Src: src})
		if merr != nil {
			return fmt.Errorf("server: encoding load record: %w", merr)
		}
		if _, werr := s.wal.Append(wal.TypeLoad, payload); werr != nil {
			return fmt.Errorf("server: logging load: %w", werr)
		}
	}
	s.progMu.Lock()
	s.programs[name] = prog
	s.progMu.Unlock()
	s.cache.Reset(name)
	s.logf("loaded %s: |Λ|=%d |Σ|=%d |Π|=%d", name,
		len(prog.current().db.Lambda), len(prog.current().db.Sigma), len(prog.current().db.Pi))
	return nil
}

// program resolves a database name; the empty name selects the sole loaded
// database when there is exactly one.
func (s *Server) program(name string) (*preparedProgram, error) {
	s.progMu.RLock()
	defer s.progMu.RUnlock()
	if name == "" {
		if len(s.programs) == 1 {
			for _, p := range s.programs {
				return p, nil
			}
		}
		return nil, fmt.Errorf("%w: no database named (loaded: %d)", ErrUnknownDB, len(s.programs))
	}
	if p := s.programs[name]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownDB, name)
}

// Databases lists the loaded database names, sorted.
func (s *Server) Databases() []string {
	s.progMu.RLock()
	defer s.progMu.RUnlock()
	names := make([]string, 0, len(s.programs))
	for n := range s.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Open admits a session after validating the database and the clearance
// against its lattice.
func (s *Server) Open(req OpenRequest) (*Session, uint64, error) {
	prog, err := s.program(req.DB)
	if err != nil {
		return nil, 0, err
	}
	snap := prog.current()
	clearance := lattice.Label(req.Clearance)
	if !snap.poset.Has(clearance) {
		return nil, 0, fmt.Errorf("server: clearance %q is not asserted by %s's Λ", req.Clearance, prog.name)
	}
	mode := multilog.Mode(req.Mode)
	if mode == "" {
		mode = multilog.ModeFir
	}
	sess, err := s.sessions.Open(req.Subject, prog.name, clearance, mode)
	if err != nil {
		return nil, 0, err
	}
	return sess, snap.epoch, nil
}

// Query answers one request on a session. The belief rewrite, the cache
// probe, the reduction lookup and the governed match all happen here;
// handlers only do transport.
func (s *Server) Query(ctx context.Context, sess *Session, req QueryRequest) (*QueryResponse, error) {
	// The generation read must precede the program lookup: if a concurrent
	// Load lands in between, the stale generation makes this query's cache
	// key unreachable (a harmless orphan) rather than ever pairing a fresh
	// generation with a pre-load snapshot.
	gen := s.cache.Generation(sess.DB)
	prog, err := s.program(sess.DB)
	if err != nil {
		return nil, err
	}
	snap := prog.current()

	goals, err := multilog.ParseGoals(trimQuery(req.Query))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	mode := sess.Mode
	if req.Mode != "" {
		mode = multilog.Mode(req.Mode)
	}
	modeKey := string(mode)
	if req.Raw {
		modeKey = "raw"
	} else {
		goals = rewriteBelief(goals, mode)
	}
	canonical := multilog.Query(goals).String()

	// Entries are keyed by load generation, not epoch, so they survive the
	// writes their deps are untouched by.
	key := cacheKey(sess.DB, gen, string(sess.Clearance), modeKey, canonical)
	if answers, ok := s.cache.Get(key); ok {
		s.queries.Add(1)
		return &QueryResponse{Answers: answers, Query: canonical, Cached: true, Epoch: snap.epoch}, nil
	}

	ctx, cancel := s.deadline(ctx, req.TimeoutMS)
	defer cancel()

	// Cost-aware admission: a cache hit never got here; a clearance whose
	// reduction is already compiled is a cheap match-only read, a first
	// query at a clearance pays the full reduction build. Under shed, a
	// recently invalidated answer may be served stale (brownout) instead
	// of rejecting outright.
	pri, cost := admission.Read, costRead
	if !snap.hasReduction(sess.Clearance) {
		pri, cost = admission.Prepare, costPrepare
	}
	ticket, aerr := s.admit(ctx, pri, cost)
	if aerr != nil {
		var shed *admission.OverloadError
		if errors.As(aerr, &shed) {
			if resp := s.staleResponse(key, canonical); resp != nil {
				s.queries.Add(1)
				return resp, nil
			}
		}
		s.qErrors.Add(1)
		return nil, aerr
	}
	start := time.Now()
	degraded := false
	defer func() { ticket.Done(time.Since(start), degraded) }()
	if s.cfg.StreamFaults != nil &&
		s.cfg.StreamFaults(faultinject.ServerQueryWork, s.queryEvN.Add(1)) == faultinject.FileSlow {
		time.Sleep(faultinject.FileSlowDuration)
	}

	red, err := snap.reductionAt(ctx, sess.Clearance, s.prepLimits())
	if err != nil {
		degraded = resource.IsLimit(err)
		s.qErrors.Add(1)
		return nil, err
	}
	answers, stats, err := red.QueryPrepared(ctx, goals, s.requestLimits(req))
	if err != nil {
		if resource.IsLimit(err) {
			// Graceful truncation: report the partial answers with the
			// typed limit error; never cache them. A governor abort is the
			// controller's degradation signal.
			degraded = true
			s.queries.Add(1)
			s.qTrunc.Add(1)
			return &QueryResponse{Answers: renderAnswers(answers), Query: canonical,
				Epoch: snap.epoch, Stats: stats}, err
		}
		s.qErrors.Add(1)
		return nil, err
	}
	rendered := renderAnswers(answers)
	s.cache.Put(key, sess.DB, snap.epoch, red.QueryDeps(goals), rendered)
	s.queries.Add(1)
	return &QueryResponse{Answers: rendered, Query: canonical, Epoch: snap.epoch, Stats: stats}, nil
}

// Update applies an assert/retract on the session's database and
// invalidates the result cache. With a WAL, the update's log record is
// appended (and fsynced, under always) inside the update's critical
// section, after lint and before the snapshot swap: an update a client saw
// acknowledged, or a query could have observed, is durable.
func (s *Server) Update(ctx context.Context, sess *Session, req UpdateRequest, retract bool) (*UpdateResponse, error) {
	if s.Role() == RoleFollower {
		return nil, &NotPrimaryError{Primary: s.PrimaryAddr()}
	}
	prog, err := s.program(sess.DB)
	if err != nil {
		return nil, err
	}
	ticket, aerr := s.admit(ctx, admission.Write, costWrite)
	if aerr != nil {
		return nil, aerr
	}
	start := time.Now()
	degraded := false
	defer func() { ticket.Done(time.Since(start), degraded) }()
	var seq uint64
	var commit func() error
	if s.wal != nil {
		commit = func() error {
			payload, merr := json.Marshal(updateRecord{
				DB: prog.name, Clauses: req.Clauses,
				Clearance: string(sess.Clearance), Retract: retract,
			})
			if merr != nil {
				return fmt.Errorf("server: encoding update record: %w", merr)
			}
			wseq, werr := s.wal.Append(wal.TypeUpdate, payload)
			if werr != nil {
				return fmt.Errorf("server: logging update: %w", werr)
			}
			seq = wseq
			return nil
		}
	}
	s.walMu.RLock()
	epoch, changed, inv, err := prog.update(req.Clauses, sess.Clearance, retract, commit)
	s.walMu.RUnlock()
	if err != nil {
		degraded = resource.IsLimit(err)
		return nil, err
	}
	s.kickCheckpoint()
	invalidated := 0
	resp := &UpdateResponse{Epoch: epoch, Changed: changed, Seq: seq}
	if changed > 0 {
		invalidated = s.invalidate(sess.DB, epoch, inv)
		scope := "all predicates"
		if !inv.all {
			resp.ChangedPreds = inv.preds
			resp.Incremental = true
			scope = fmt.Sprintf("%d predicate(s)", len(inv.preds))
		}
		verb := "assert"
		if retract {
			verb = "retract"
		}
		s.logf("%s %s by %s@%s: %d clause(s), epoch %d, %d cache entries invalidated (%s)",
			verb, sess.DB, sess.Subject, sess.Clearance, changed, epoch, invalidated, scope)
	}
	resp.Invalidated = invalidated
	return resp, nil
}

// invalidate drops the result-cache entries an effective update of db at
// epoch could have changed — everything, or the entries depending on the
// impacted predicates — and returns how many.
func (s *Server) invalidate(db string, epoch uint64, inv invalidation) int {
	if inv.all {
		return s.cache.InvalidateAll(db, epoch)
	}
	return s.cache.InvalidatePreds(db, epoch, inv.preds)
}

// Stats snapshots every counter for /v1/stats.
func (s *Server) Stats() StatsResponse {
	s.progMu.RLock()
	dbs := make(map[string]DBStats, len(s.programs))
	for name, p := range s.programs {
		dbs[name] = p.stats()
	}
	s.progMu.RUnlock()
	return StatsResponse{
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Sessions:    s.sessions.Stats(),
		Queries:     QueryStats{Served: s.queries.Load(), Errors: s.qErrors.Load(), Truncated: s.qTrunc.Load()},
		Cache:       s.cache.Stats(),
		Compiled:    compile.DefaultCache.Stats(),
		Databases:   dbs,
		Durability:  s.durabilityStats(),
		Replication: s.replicationStats(),
		Admission:   s.admissionStats(),
	}
}

// staleResponse answers a shed read from the result cache when a recently
// invalidated copy of exactly this query's answers exists and is no older
// than Config.MaxStale. The answer carries the epoch it was computed at,
// which precedes the write that invalidated it. nil means no brownout
// answer: the caller propagates the overload rejection.
func (s *Server) staleResponse(key, canonical string) *QueryResponse {
	if s.cfg.MaxStale <= 0 {
		return nil
	}
	answers, epoch, age, ok := s.cache.GetStale(key, s.cfg.MaxStale)
	if !ok {
		return nil
	}
	s.staleServed.Add(1)
	staleMS := age.Milliseconds()
	if staleMS < 1 {
		staleMS = 1 // omitempty would erase 0 and the answer would read as fresh
	}
	return &QueryResponse{Answers: answers, Query: canonical, Cached: true,
		Epoch: epoch, StaleMS: staleMS}
}

// admissionStats maps the controller snapshot for /v1/stats; nil when
// admission is disabled.
func (s *Server) admissionStats() *AdmissionStats {
	if s.adm == nil {
		return nil
	}
	st := s.adm.Snapshot()
	return &AdmissionStats{
		Limit:          st.Limit,
		Inflight:       st.Inflight,
		Queued:         st.Queued,
		Admitted:       st.Admitted,
		Bypassed:       st.Bypassed,
		Shed:           st.Shed,
		Shedding:       st.Shedding,
		StaleServed:    s.staleServed.Load(),
		LimitDecreases: st.LimitDecreases,
	}
}

// ListenAndServe serves on addr until ctx is canceled, then drains: no new
// sessions are admitted, in-flight requests finish (bounded by
// drainTimeout), and the listener closes. Returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, drainTimeout)
}

// Serve is ListenAndServe over an existing listener (tests pass a
// port-zero listener and read ln.Addr()).
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	ckptDone := make(chan struct{})
	if s.wal != nil {
		go func() {
			defer close(ckptDone)
			s.checkpointLoop(ctx)
		}()
	} else {
		close(ckptDone)
	}
	s.logf("serving on %s", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("draining (timeout %s)", drainTimeout)
	s.draining.Store(true)
	s.sessions.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx)
	<-errc // Serve has returned http.ErrServerClosed
	s.inFlight.Wait()
	<-ckptDone
	if s.wal != nil {
		// Final checkpoint so the next boot replays nothing, then release
		// the store.
		if cerr := s.Checkpoint(); cerr != nil {
			s.logf("final checkpoint: %v", cerr)
		}
		if cerr := s.wal.Close(); cerr != nil {
			s.logf("closing wal: %v", cerr)
		}
	}
	s.logf("drained")
	return err
}

// deadline derives the per-request context: the server ceiling, tightened
// by the client's timeout_ms when that is stricter.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if req := time.Duration(timeoutMS) * time.Millisecond; req > 0 && (d == 0 || req < d) {
		d = req
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// requestLimits tightens the server budget by the request's asks.
func (s *Server) requestLimits(req QueryRequest) resource.Limits {
	l := s.cfg.Limits
	if req.MaxFacts > 0 && (l.MaxFacts == 0 || req.MaxFacts < l.MaxFacts) {
		l.MaxFacts = req.MaxFacts
	}
	if req.MaxSteps > 0 && (l.MaxSteps == 0 || req.MaxSteps < l.MaxSteps) {
		l.MaxSteps = req.MaxSteps
	}
	return l
}

// prepLimits bounds reduction builds by the server budget; the request
// context's deadline bounds them in time.
func (s *Server) prepLimits() resource.Limits { return s.cfg.Limits }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// rewriteBelief answers "every query is answered at the session's view":
// bare m-atoms become belief atoms at the session (or request) mode. The
// default mode fir preserves m-semantics exactly — firm belief at a level
// is the m-atoms visible at it (axiom a4) — so sessions that never chose a
// mode see classical answers. Goals that already carry "<< mode" and
// classical goals pass through unchanged.
func rewriteBelief(goals []multilog.Goal, mode multilog.Mode) []multilog.Goal {
	out := make([]multilog.Goal, len(goals))
	for i, g := range goals {
		if g.Kind == multilog.GoalM {
			g = multilog.BGoal(g.M, mode)
		}
		out[i] = g
	}
	return out
}

// renderAnswers flattens answers to var->text maps; the engine already
// orders them deterministically. Always non-nil so JSON says [] not null.
func renderAnswers(answers []multilog.Answer) []map[string]string {
	out := make([]map[string]string, len(answers))
	for i, a := range answers {
		m := make(map[string]string, len(a.Bindings))
		for v, t := range a.Bindings {
			m[v] = t.String()
		}
		out[i] = m
	}
	return out
}

// trimQuery strips the optional "?-" prefix and trailing ".".
func trimQuery(q string) string {
	q = strings.TrimSpace(q)
	q = strings.TrimSpace(strings.TrimPrefix(q, "?-"))
	return strings.TrimSpace(strings.TrimSuffix(q, "."))
}
