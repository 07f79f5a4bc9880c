package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/term"
)

// preparedProgram is one loaded MultiLog database behind a copy-on-write
// snapshot: the hot path (queries) takes a read lock only long enough to
// grab the current *snapshot pointer, then evaluates against that snapshot
// with no locks held; the cold path (assert/retract) builds a fresh
// snapshot from a deep clone and swaps the pointer. In-flight queries keep
// answering from the snapshot they started on — their answers are tagged
// (and cached) with that snapshot's epoch, so they can never be confused
// with post-update state.
type preparedProgram struct {
	name   string
	limits resource.Limits // prepare/advance budget, from Config.Limits

	mu   sync.RWMutex // guards snap
	snap *snapshot

	upMu    sync.Mutex // serializes updates (clone → edit → lint → swap)
	updates atomic.Int64
}

// snapshot is one immutable program version. The database, its poset and
// the per-clearance reductions are never modified after publication; the
// reductions map alone grows lazily under its own lock (building the
// reduction for a clearance the first time a session at that clearance
// queries).
type snapshot struct {
	epoch uint64
	db    *multilog.Database
	poset *lattice.Poset

	redMu      sync.RWMutex
	reductions map[lattice.Label]*multilog.Reduction

	// impact is the clearance-independent reverse dependency graph of the
	// translation, used to bound which cache entries a fact write can
	// invalidate. Built lazily on the first write and carried from snapshot
	// to snapshot across fact-only updates (the graph depends only on the
	// rules). Guarded by impactMu after publication.
	impactMu sync.Mutex
	impact   *multilog.ImpactGraph
}

// newPrepared parses, lints and prepares a program. Lint findings of
// severity Error reject the program with a *LintError; warnings are
// returned for the caller to log.
func newPrepared(name, src string, prepLimits resource.Limits) (*preparedProgram, lint.Diagnostics, error) {
	return newPreparedEpoch(name, src, 1, prepLimits)
}

// newPreparedEpoch is newPrepared resuming at a recovered epoch: a
// checkpointed program re-enters service at the epoch it had when the
// checkpoint was cut, so epochs never regress across a restart.
func newPreparedEpoch(name, src string, epoch uint64, prepLimits resource.Limits) (*preparedProgram, lint.Diagnostics, error) {
	db, err := multilog.Parse(src)
	if err != nil {
		return nil, nil, &LintError{Name: name, Findings: lint.FromParseError(name, err).String()}
	}
	diags := lint.MultiLog(db, lint.Options{File: name})
	if diags.HasErrors() {
		return nil, diags, &LintError{Name: name, Findings: diags.String()}
	}
	snap, err := newSnapshot(epoch, db)
	if err != nil {
		return nil, diags, err
	}
	return &preparedProgram{name: name, limits: prepLimits, snap: snap}, diags, nil
}

// newSnapshot freezes a database into an immutable version: the poset is
// computed (and admissibility checked) up front so that later concurrent
// Reduce calls only read the cache.
func newSnapshot(epoch uint64, db *multilog.Database) (*snapshot, error) {
	if err := db.CheckAdmissible(); err != nil {
		return nil, err
	}
	poset, err := db.Poset()
	if err != nil {
		return nil, err
	}
	return &snapshot{epoch: epoch, db: db, poset: poset,
		reductions: map[lattice.Label]*multilog.Reduction{}}, nil
}

// current returns the live snapshot.
func (p *preparedProgram) current() *snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.snap
}

// reductionAt returns the snapshot's prepared reduction for one clearance,
// building it on first use. It is the server's one way to materialize a
// model: Reduce (parse-free: the database is already in memory) plus an
// eager model build through the compiled engine (compile.
// PrepareReduction) under ctx and limits, so a hostile program cannot wedge
// the first query at a level forever. The plan cache is keyed by the
// reduced program's rules, so rebuilding after a fact-only write re-runs
// the cached plan over the new facts, and programs the compiler routes to
// the interpreter fall back transparently.
func (s *snapshot) reductionAt(ctx context.Context, u lattice.Label, limits resource.Limits) (*multilog.Reduction, error) {
	s.redMu.RLock()
	red := s.reductions[u]
	s.redMu.RUnlock()
	if red != nil {
		return red, nil
	}
	s.redMu.Lock()
	defer s.redMu.Unlock()
	if red := s.reductions[u]; red != nil {
		return red, nil
	}
	red, err := multilog.Reduce(s.db, u)
	if err != nil {
		return nil, err
	}
	if _, err := compile.PrepareReduction(ctx, red, compile.Options{Limits: limits}); err != nil {
		return nil, err
	}
	s.reductions[u] = red
	return red, nil
}

// hasReduction reports whether the clearance's reduction is already
// compiled — the admission controller prices a match-only read far below a
// first query that must pay the reduction build.
func (s *snapshot) hasReduction(u lattice.Label) bool {
	s.redMu.RLock()
	defer s.redMu.RUnlock()
	return s.reductions[u] != nil
}

// stats snapshots the program's counters.
func (p *preparedProgram) stats() DBStats {
	s := p.current()
	s.redMu.RLock()
	nred := len(s.reductions)
	s.redMu.RUnlock()
	return DBStats{
		Epoch:      s.epoch,
		Lambda:     len(s.db.Lambda),
		Sigma:      len(s.db.Sigma),
		Pi:         len(s.db.Pi),
		Reductions: nred,
		Updates:    p.updates.Load(),
	}
}

// update applies an assert or retract on behalf of a session cleared at
// clearance. src is MultiLog source holding Σ and/or Π clauses; Λ clauses
// and stored queries are rejected (the lattice and the query set are fixed
// at load). Write authorization is value-based MLS: every ground security
// level and classification mentioned by the clauses must be dominated by
// the subject's clearance — you cannot write (or remove) data you cannot
// see. The updated program is re-linted before the swap; a program the
// linter rejects never becomes an epoch.
//
// It returns the new epoch (unchanged when nothing changed), how many
// clauses were added or removed, and an invalidation describing which
// translated predicates the write could affect.
//
// commit, when non-nil, runs inside the critical section after the new
// snapshot is built (post-lint) and before it is swapped in: the server
// hangs its WAL append here, making the update durable strictly before it
// is visible, in the exact order snapshots are published. A commit error
// aborts the update with nothing swapped.
func (p *preparedProgram) update(src string, clearance lattice.Label, retract bool, commit func() error) (uint64, int, invalidation, error) {
	none := invalidation{}
	delta, err := multilog.Parse(src)
	if err != nil {
		return 0, 0, none, fmt.Errorf("parse: %w", err)
	}
	if len(delta.Lambda) > 0 {
		return 0, 0, none, fmt.Errorf("server: the security lattice is fixed at load; Λ clauses cannot be asserted or retracted")
	}
	if len(delta.Queries) > 0 {
		return 0, 0, none, fmt.Errorf("server: stored queries are fixed at load; send queries to /v1/query")
	}
	deltaClauses := append(append([]multilog.Clause{}, delta.Sigma...), delta.Pi...)
	if len(deltaClauses) == 0 {
		return 0, 0, none, fmt.Errorf("server: no clauses to apply")
	}

	p.upMu.Lock()
	defer p.upMu.Unlock()
	cur := p.current()

	for _, c := range delta.Sigma {
		if err := authorizeClause(c, cur.poset, clearance, retract); err != nil {
			return 0, 0, none, err
		}
	}

	next := cur.db.Clone()
	changed := 0
	if retract {
		changed += retractClauses(&next.Sigma, delta.Sigma)
		changed += retractClauses(&next.Pi, delta.Pi)
		if changed == 0 {
			return cur.epoch, 0, none, nil
		}
	} else {
		for _, c := range deltaClauses {
			if err := next.AddClause(c); err != nil {
				return 0, 0, none, err
			}
			changed++
		}
	}

	diags := lint.MultiLog(next, lint.Options{File: p.name})
	if diags.HasErrors() {
		return 0, 0, none, &LintError{Name: p.name, Findings: diags.String()}
	}
	snap, err := newSnapshot(cur.epoch+1, next)
	if err != nil {
		return 0, 0, none, err
	}
	inv := p.planInvalidation(cur, snap, deltaClauses)
	p.invalidatePlans(cur, inv)
	p.advanceReductions(cur, snap)
	if commit != nil {
		if err := commit(); err != nil {
			return 0, 0, none, err
		}
	}
	p.mu.Lock()
	p.snap = snap
	p.mu.Unlock()
	p.updates.Add(1)
	return snap.epoch, changed, inv, nil
}

// invalidation says what a committed update could have changed: either
// everything (rule changes, or an impact the server could not bound) or the
// listed translated predicates, at any clearance.
type invalidation struct {
	all   bool
	preds []string
}

// planInvalidation bounds the write's blast radius. For fact-only deltas it
// closes the written facts' translated predicates over the clearance-
// independent reverse dependency graph; cache entries whose deps are
// disjoint from that closure cannot have changed at any clearance. Anything
// else — rule changes, unmappable heads — invalidates everything. The graph
// depends only on the rules, so fact-only updates carry it forward to the
// new snapshot instead of rebuilding it per write.
func (p *preparedProgram) planInvalidation(cur, snap *snapshot, deltaClauses []multilog.Clause) invalidation {
	for _, c := range deltaClauses {
		if !c.IsFact() {
			return invalidation{all: true}
		}
	}
	g, err := cur.impactGraph()
	if err != nil {
		return invalidation{all: true}
	}
	snap.impact = g // pre-publication; no lock needed yet
	preds, err := g.Impact(deltaClauses)
	if err != nil {
		return invalidation{all: true}
	}
	return invalidation{preds: preds}
}

// invalidatePlans keeps the compiled plan cache honest across updates.
// Plans are keyed by the reduced program's rule set, so a fact-only write
// leaves every cached plan valid — the next prepare at any clearance
// re-runs the same plan over the new facts, which is the compiled fast
// path. A rule write changes the reduced rule set at every clearance,
// stranding this program's cached plans under keys that can never be hit
// again; those are dropped by the translated predicate names the program's
// prepared reductions mention (a clearance never prepared compiled no
// plan, so an empty set is complete).
func (p *preparedProgram) invalidatePlans(cur *snapshot, inv invalidation) {
	if !inv.all {
		return
	}
	seen := map[string]bool{}
	var preds []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			preds = append(preds, name)
		}
	}
	cur.redMu.RLock()
	for _, red := range cur.reductions {
		for _, c := range red.Program.Clauses {
			add(c.Head.Pred)
			for _, l := range c.Body {
				if !l.Atom.IsBuiltin() {
					add(l.Atom.Pred)
				}
			}
		}
	}
	cur.redMu.RUnlock()
	compile.DefaultCache.Invalidate(preds)
}

// impactGraph returns the snapshot's reverse dependency graph, building it
// on first use.
func (s *snapshot) impactGraph() (*multilog.ImpactGraph, error) {
	s.impactMu.Lock()
	defer s.impactMu.Unlock()
	if s.impact == nil {
		g, err := multilog.NewImpactGraph(s.db)
		if err != nil {
			return nil, err
		}
		s.impact = g
	}
	return s.impact, nil
}

// advanceReductions rebuilds on the new snapshot every reduction that was
// warm on cur (reductionAt), so a write never leaves a warm clearance to pay
// the build on its next query. After a fact-only write the rule set is
// unchanged and each rebuild re-runs the cached plan.
func (p *preparedProgram) advanceReductions(cur, snap *snapshot) {
	cur.redMu.RLock()
	warm := make([]lattice.Label, 0, len(cur.reductions))
	for u := range cur.reductions {
		warm = append(warm, u)
	}
	cur.redMu.RUnlock()
	for _, u := range warm {
		// A failed build (resource limits, reduce errors) leaves u cold on
		// snap; its next query rebuilds it lazily.
		_, _ = snap.reductionAt(context.Background(), u, p.limits)
	}
}

// authorizeClause enforces the write rule on one Σ clause: every ground
// level or classification it mentions must be dominated by the clearance.
func authorizeClause(c multilog.Clause, poset *lattice.Poset, clearance lattice.Label, retract bool) error {
	action := "assert"
	if retract {
		action = "retract"
	}
	goals := append([]multilog.Goal{c.Head}, c.Body...)
	for _, g := range goals {
		if g.Kind != multilog.GoalM && g.Kind != multilog.GoalB {
			continue
		}
		for _, t := range []term.Term{g.M.Level, g.M.Class} {
			if t.Kind() != term.KindConst {
				continue // variables range over levels the evaluation guards
			}
			lbl := lattice.Label(t.Name())
			if !poset.Has(lbl) {
				continue // unknown constants are caught by lint/admissibility
			}
			if !poset.Dominates(clearance, lbl) {
				return &DeniedError{Clearance: string(clearance), Level: string(lbl), Action: action}
			}
		}
	}
	return nil
}

// retractClauses removes from dst every clause whose canonical rendering
// equals a clause of del, returning how many were removed.
func retractClauses(dst *[]multilog.Clause, del []multilog.Clause) int {
	if len(del) == 0 {
		return 0
	}
	gone := map[string]bool{}
	for _, c := range del {
		gone[c.String()] = true
	}
	kept := (*dst)[:0]
	removed := 0
	for _, c := range *dst {
		if gone[c.String()] {
			removed++
			continue
		}
		kept = append(kept, c)
	}
	*dst = kept
	return removed
}
