package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/wal"
)

// layerState is the traced run's own copy of the layers a request passes
// through. A traced request runs in-process against the server and then
// replays the layer calls Server.Query or Server.Update make, each under a
// span, against this state: a database, per-clearance reductions prepared
// the way the server prepares them, the write-impact graph and a WAL in a
// directory the benchmark owns.
type layerState struct {
	wmu    sync.Mutex // serializes write replays
	mu     sync.Mutex // guards the db and reds pointers
	db     *multilog.Database
	reds   []*multilog.Reduction // indexed by clearance level
	impact *multilog.ImpactGraph
	dir    string
	store  *wal.Store

	advances, incremental atomic.Int64
	responses, respBytes  atomic.Int64
	matches, sorted       atomic.Int64
}

// newLayerState prepares the replay state from the program source: Reduce
// and compile.PrepareReduction per clearance, traced under rt, then one
// untraced assert/retract pair so the reductions take the same first-write
// route switch the server's warm-up took.
func newLayerState(ctx context.Context, work, src string, rt *reqTrace) (*layerState, error) {
	db, err := multilog.Parse(src)
	if err != nil {
		return nil, err
	}
	ls := &layerState{db: db}
	rt.begin("bench.prepare")
	for l := 0; l < numLevels; l++ {
		rt.begin("multilog.reduce")
		red, err := multilog.Reduce(db, level(l))
		rt.end()
		if err != nil {
			return nil, err
		}
		rt.begin("compile.prepare")
		_, err = compile.PrepareReduction(ctx, red, compile.Options{})
		rt.end()
		if err != nil {
			return nil, err
		}
		ls.reds = append(ls.reds, red)
	}
	rt.end()
	if ls.impact, err = multilog.NewImpactGraph(db); err != nil {
		return nil, err
	}
	if ls.dir, err = os.MkdirTemp(work, "layer-wal-"); err != nil {
		return nil, err
	}
	if ls.store, _, err = wal.Open(wal.Options{Dir: ls.dir, Sync: wal.SyncAlways}); err != nil {
		ls.close()
		return nil, err
	}
	const warmFact = "l0[p0(warm: a -l0-> v0)]."
	for _, retract := range []bool{false, true} {
		if err := ls.replayUpdate(ctx, warmFact, 0, retract, nil); err != nil {
			ls.close()
			return nil, err
		}
	}
	ls.advances.Store(0)
	ls.incremental.Store(0)
	return ls, nil
}

func (ls *layerState) close() {
	if ls.store != nil {
		_ = ls.store.Close() // the directory is removed next
	}
	_ = os.RemoveAll(ls.dir)
}

func level(l int) lattice.Label { return lattice.Label(fmt.Sprintf("l%d", l)) }

// replayRead serves a traced read in-process and replays its layers:
// Server.Query, the response's JSON encode, the request and response
// decodes, ParseGoals and QueryPrepared on the replay's reduction.
func (ls *layerState) replayRead(ctx context.Context, in *instance, o op, rt *reqTrace) (*server.QueryResponse, error) {
	req := server.QueryRequest{Session: in.tokens[o.sess], Query: o.query}
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rt.begin("bench.read")
	defer rt.end()

	rt.begin("server.query")
	resp, err := in.srv.Query(ctx, in.sessions[o.sess], req)
	rt.end()
	if err != nil {
		return nil, err
	}

	rt.begin("server.encode")
	body, err := json.Marshal(resp)
	rt.end()
	if err != nil {
		return nil, err
	}
	rt.begin("server.decode")
	var reqBack server.QueryRequest
	var respBack server.QueryResponse
	err = json.Unmarshal(reqBody, &reqBack)
	if err == nil {
		err = json.Unmarshal(body, &respBack)
	}
	rt.end()
	if err != nil {
		return nil, err
	}
	ls.responses.Add(1)
	ls.respBytes.Add(int64(len(body)))

	rt.begin("multilog.parse_goals")
	goals, err := multilog.ParseGoals(trimQuery(o.query))
	rt.end()
	if err != nil {
		return nil, err
	}
	goals = rewriteBelief(goals, multilog.Mode(sessionSpecs()[o.sess].mode))
	ls.mu.Lock()
	red := ls.reds[sessionSpecs()[o.sess].level]
	ls.mu.Unlock()
	rt.begin("multilog.match")
	answers, _, err := red.QueryPrepared(ctx, goals, resource.Limits{})
	rt.end()
	if err != nil {
		return nil, err
	}
	ls.matches.Add(1)
	ls.sorted.Add(int64(len(answers)))
	return resp, nil
}

// replayWrite serves a traced write in-process through Server.Update, then
// replays the same delta on the replay state.
func (ls *layerState) replayWrite(ctx context.Context, in *instance, o op, rt *reqTrace) (*server.UpdateResponse, error) {
	rt.begin("bench.write")
	defer rt.end()
	rt.begin("server.update")
	resp, err := in.srv.Update(ctx, in.sessions[o.sess],
		server.UpdateRequest{Session: in.tokens[o.sess], Clauses: o.fact.clause}, o.retract)
	rt.end()
	if err != nil {
		return nil, err
	}
	if err := ls.replayUpdate(ctx, o.fact.clause, sessionSpecs()[o.sess].level, o.retract, rt); err != nil {
		return nil, err
	}
	return resp, nil
}

// updateRecord mirrors the server's WAL payload for an assert or retract.
type updateRecord struct {
	DB        string `json:"db"`
	Clauses   string `json:"clauses"`
	Clearance string `json:"clearance"`
	Retract   bool   `json:"retract,omitempty"`
}

// replayUpdate applies one fact write the way the server's update path
// does: clone the database, edit the clone, lint it, bound the write's
// impact, advance every clearance's reduction from the previous one, and
// append the update record to the WAL.
func (ls *layerState) replayUpdate(ctx context.Context, clause string, clearance int, retract bool, rt *reqTrace) error {
	delta, err := multilog.Parse(clause)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(updateRecord{DB: dbName, Clauses: clause,
		Clearance: string(level(clearance)), Retract: retract})
	if err != nil {
		return err
	}
	ls.wmu.Lock()
	defer ls.wmu.Unlock()

	rt.begin("multilog.clone")
	next := ls.db.Clone()
	rt.end()
	if retract {
		next.Sigma = removeClauses(next.Sigma, delta.Sigma)
	} else {
		for _, c := range delta.Sigma {
			if err := next.AddClause(c); err != nil {
				return err
			}
		}
	}

	rt.begin("lint.multilog")
	diags := lint.MultiLog(next, lint.Options{File: dbName})
	rt.end()
	if diags.HasErrors() {
		return fmt.Errorf("replayed write %q fails lint: %s", clause, diags)
	}

	rt.begin("multilog.impact")
	_, err = ls.impact.Impact(delta.Sigma)
	rt.end()
	if err != nil {
		return err
	}

	reds := make([]*multilog.Reduction, len(ls.reds))
	for l, old := range ls.reds {
		rt.begin("multilog.reduce")
		red, err := multilog.Reduce(next, level(l))
		rt.end()
		if err != nil {
			return err
		}
		rt.begin("multilog.advance")
		rep, err := red.AdvanceFrom(ctx, old, resource.Limits{})
		rt.end()
		if err != nil {
			return err
		}
		ls.advances.Add(1)
		if rep.Incremental {
			ls.incremental.Add(1)
		}
		reds[l] = red
	}

	rt.begin("wal.append")
	_, err = ls.store.Append(wal.TypeUpdate, payload)
	rt.end()
	if err != nil {
		return err
	}
	ls.mu.Lock()
	ls.db, ls.reds = next, reds
	ls.mu.Unlock()
	return nil
}

// removeClauses drops every clause of cs whose rendering matches one of del.
func removeClauses(cs, del []multilog.Clause) []multilog.Clause {
	gone := map[string]bool{}
	for _, c := range del {
		gone[c.String()] = true
	}
	kept := make([]multilog.Clause, 0, len(cs))
	for _, c := range cs {
		if !gone[c.String()] {
			kept = append(kept, c)
		}
	}
	return kept
}

// rewriteBelief answers a bare m-atom at the session's belief mode, as the
// server does before matching.
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

// trimQuery strips an optional "?-" prefix and trailing ".".
func trimQuery(q string) string {
	q = strings.TrimSpace(q)
	q = strings.TrimSpace(strings.TrimPrefix(q, "?-"))
	return strings.TrimSpace(strings.TrimSuffix(q, "."))
}

// renderAnswers flattens answers to variable-to-text maps, as the server
// renders them.
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
