package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/server"
)

// oracle re-derives answers with the interpreter engine (Reduction.Prepare
// and QueryPrepared over datalog.Incremental), which shares no evaluation
// code with the compiled engine the server prepares its reductions with.
// It knows the loaded program and every acknowledged write with the epoch
// that write produced, so it can rebuild the program at any epoch.
type oracle struct {
	base   *multilog.Database
	writes []writeEntry // ascending epoch
	reds   map[[2]uint64]*multilog.Reduction
}

// newOracle checks that the acknowledged writes account for every epoch
// after the load exactly once: a gap or a repeat means an acknowledged
// write was lost or applied twice.
func newOracle(src string, writes []writeEntry) (*oracle, error) {
	db, err := multilog.Parse(src)
	if err != nil {
		return nil, err
	}
	ws := append([]writeEntry(nil), writes...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].epoch < ws[j].epoch })
	for i, w := range ws {
		if w.epoch != uint64(i)+2 {
			return nil, fmt.Errorf("acknowledged writes do not cover epochs 2..%d: write %d has epoch %d", len(ws)+1, i, w.epoch)
		}
	}
	return &oracle{base: db, writes: ws, reds: map[[2]uint64]*multilog.Reduction{}}, nil
}

// finalEpoch is the epoch after the last acknowledged write.
func (o *oracle) finalEpoch() uint64 { return uint64(len(o.writes)) + 1 }

// liveAt lists the private facts asserted and not yet retracted at epoch.
// Writes touch only private facts, never the loaded program's own.
func (o *oracle) liveAt(epoch uint64) []string {
	live := map[string]bool{}
	var order []string
	for _, w := range o.writes {
		if w.epoch > epoch {
			break
		}
		if w.retract {
			delete(live, w.clauses)
			continue
		}
		if !live[w.clauses] {
			order = append(order, w.clauses)
		}
		live[w.clauses] = true
	}
	var out []string
	for _, c := range order {
		if live[c] {
			out = append(out, c)
		}
	}
	return out
}

// dbAt rebuilds the program as of epoch.
func (o *oracle) dbAt(epoch uint64) (*multilog.Database, error) {
	db := o.base.Clone()
	for _, src := range o.liveAt(epoch) {
		delta, err := multilog.Parse(src)
		if err != nil {
			return nil, err
		}
		for _, c := range delta.Sigma {
			if err := db.AddClause(c); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// reduction returns the interpreter-prepared reduction at (epoch, level).
func (o *oracle) reduction(ctx context.Context, epoch uint64, lvl int) (*multilog.Reduction, error) {
	k := [2]uint64{epoch, uint64(lvl)}
	if red := o.reds[k]; red != nil {
		return red, nil
	}
	db, err := o.dbAt(epoch)
	if err != nil {
		return nil, err
	}
	red, err := multilog.Reduce(db, level(lvl))
	if err != nil {
		return nil, err
	}
	if err := red.Prepare(ctx, resource.Limits{}); err != nil {
		return nil, err
	}
	o.reds[k] = red
	return red, nil
}

// answers are session sess's rendered answers to query at epoch.
func (o *oracle) answers(ctx context.Context, epoch uint64, sess int, query string) ([]map[string]string, error) {
	sp := sessionSpecs()[sess]
	red, err := o.reduction(ctx, epoch, sp.level)
	if err != nil {
		return nil, err
	}
	goals, err := multilog.ParseGoals(trimQuery(query))
	if err != nil {
		return nil, err
	}
	got, _, err := red.QueryPrepared(ctx, rewriteBelief(goals, multilog.Mode(sp.mode)), resource.Limits{})
	if err != nil {
		return nil, err
	}
	return renderAnswers(got), nil
}

// checkSamples re-derives each sampled read at the epoch it was served at
// and compares digests. At most limit samples are checked, a seeded choice
// when there are more; it returns how many were checked.
func (o *oracle) checkSamples(ctx context.Context, samples []readSample, limit int, seed int64) (int, error) {
	if limit > 0 && len(samples) > limit {
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		samples = samples[:limit]
	}
	for _, s := range samples {
		want, err := o.answers(ctx, s.epoch, s.sess, s.query)
		if err != nil {
			return 0, err
		}
		d, err := answerDigest(want)
		if err != nil {
			return 0, err
		}
		if d != s.digest {
			return 0, fmt.Errorf("oracle: session %d query %q at epoch %d: served answers differ from a fresh interpreter derivation", s.sess, s.query, s.epoch)
		}
	}
	return len(samples), nil
}

// checkServer asks srv, in-process, every full-scan query at every session
// and requires byte-equal JSON with the oracle at the final epoch. It also
// requires the server to be at that epoch. It returns the number of
// answers lists compared.
func (o *oracle) checkServer(ctx context.Context, srv *server.Server, what string) (int, error) {
	epoch := o.finalEpoch()
	n := 0
	for i, sp := range sessionSpecs() {
		sess, _, err := srv.Open(server.OpenRequest{DB: dbName, Subject: fmt.Sprintf("oracle%d", i),
			Clearance: string(level(sp.level)), Mode: sp.mode})
		if err != nil {
			return n, err
		}
		for _, q := range cachedQueries() {
			resp, err := srv.Query(ctx, sess, server.QueryRequest{Session: sess.Token, Query: q})
			if err != nil {
				return n, fmt.Errorf("%s: %w", what, err)
			}
			if resp.Epoch != epoch {
				return n, fmt.Errorf("oracle: %s server is at epoch %d, acknowledged writes end at %d", what, resp.Epoch, epoch)
			}
			want, err := o.answers(ctx, epoch, i, q)
			if err != nil {
				return n, err
			}
			got, err := json.Marshal(resp.Answers)
			if err != nil {
				return n, err
			}
			exp, err := json.Marshal(want)
			if err != nil {
				return n, err
			}
			if !bytes.Equal(got, exp) {
				return n, fmt.Errorf("oracle: %s server, session %d query %q: answers differ from a fresh full re-derivation", what, i, q)
			}
			n++
		}
	}
	return n, nil
}

// checkRecovered requires the recovered server to hold every acknowledged
// write: its epoch and fact count must match, and with full set it must
// answer every full scan at every session byte-equal with the oracle.
func (o *oracle) checkRecovered(ctx context.Context, srv *server.Server, full bool) (int, error) {
	db := srv.Stats().Databases[dbName]
	wantSigma := len(o.base.Sigma) + len(o.liveAt(o.finalEpoch()))
	if db.Epoch != o.finalEpoch() || db.Sigma != wantSigma {
		return 0, fmt.Errorf("oracle: recovered epoch %d with %d facts, acknowledged writes give epoch %d with %d",
			db.Epoch, db.Sigma, o.finalEpoch(), wantSigma)
	}
	if !full {
		return 1, nil
	}
	return o.checkServer(ctx, srv, "recovered")
}
